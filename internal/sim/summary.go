package sim

// MeanBatch returns the mean number of requests served per round, or 0
// when no rounds ran.
func (r *Result) MeanBatch() float64 {
	if len(r.Rounds) == 0 {
		return 0
	}
	total := 0
	for _, rd := range r.Rounds {
		total += rd.Batch
	}
	return float64(total) / float64(len(r.Rounds))
}

// MeanStops returns the mean number of sojourn stops per round, or 0 when
// no rounds ran. The ratio MeanBatch/MeanStops is the multi-node
// consolidation factor (1 for one-to-one charging).
func (r *Result) MeanStops() float64 {
	if len(r.Rounds) == 0 {
		return 0
	}
	total := 0
	for _, rd := range r.Rounds {
		total += rd.Stops
	}
	return float64(total) / float64(len(r.Rounds))
}

// ConsolidationFactor returns the mean sensors-charged-per-stop across the
// run (1 means no multi-node benefit), or 0 when nothing was charged.
func (r *Result) ConsolidationFactor() float64 {
	stops := 0
	batch := 0
	for _, rd := range r.Rounds {
		stops += rd.Stops
		batch += rd.Batch
	}
	if stops == 0 {
		return 0
	}
	return float64(batch) / float64(stops)
}
