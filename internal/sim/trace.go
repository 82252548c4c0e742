package sim

import (
	"encoding/json"
	"io"
)

// TraceEvent is one line of the simulator's structured JSONL trace. Kind
// is one of seven types:
//
//   - "dispatch": a round left the depot (Batch, Stops, Delay; Charger is
//     -1 for a synchronized round's whole fleet);
//   - "charge": Sensor was refilled with Energy;
//   - "dead": Sensor's battery ran out;
//   - "mcv-fail": Charger broke down;
//   - "redistribute": Stops orphaned stops moved to surviving chargers;
//   - "sensor-fail": churn removed Sensor for good;
//   - "burst": a request burst drained Batch sensors.
//
// Both dispatch modes write dispatch, charge and dead lines and, under a
// fault plan, mcv-fail, sensor-fail and burst lines; only synchronized
// dispatch redistributes. Times are seconds since the simulation start;
// lines come in commit order, not time order, so T is authoritative.
type TraceEvent struct {
	// Kind discriminates the event type.
	Kind string `json:"kind"`
	// T is the event time.
	T float64 `json:"t"`
	// Charger is the charger index for dispatch and mcv-fail events.
	Charger int `json:"charger,omitempty"`
	// Batch is the request count for dispatch and burst events.
	Batch int `json:"batch,omitempty"`
	// Stops is the stop count for dispatch and redistribute events.
	Stops int `json:"stops,omitempty"`
	// Delay is the longest tour delay for dispatch events.
	Delay float64 `json:"delay,omitempty"`
	// Sensor is the sensor ID for charge, dead and sensor-fail events.
	Sensor int `json:"sensor,omitempty"`
	// Energy is the delivered energy for charge events, in joules.
	Energy float64 `json:"energy,omitempty"`
}

// tracer serializes trace events to a writer; a nil tracer drops them.
type tracer struct {
	enc *json.Encoder
	err error
}

func newTracer(w io.Writer) *tracer {
	if w == nil {
		return nil
	}
	return &tracer{enc: json.NewEncoder(w)}
}

func (t *tracer) emit(ev TraceEvent) {
	if t == nil || t.err != nil {
		return
	}
	t.err = t.enc.Encode(ev)
}

// Err returns the first write error, if any.
func (t *tracer) Err() error {
	if t == nil {
		return nil
	}
	return t.err
}
