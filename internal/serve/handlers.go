package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/wrsn"
)

// PlanRequest is the /v1/plan request envelope. A request body may also
// be a bare core.Instance (exactly what `wrsn-plan -dump-instance`
// writes), which plans with the default planner.
type PlanRequest struct {
	// Planner names the algorithm ("" means Appro); the ?planner= query
	// parameter overrides it.
	Planner string `json:"planner,omitempty"`
	// Instance is the problem to plan.
	Instance *core.Instance `json:"instance"`
	// Options holds the planner options (field names as in
	// core.Options: Seed, which only BiLevel reads; the other planners
	// ignore it). Decoding is strict, so any other field, a retired
	// option such as Workers included, is a 400.
	Options *core.Options `json:"options,omitempty"`
	// TimeoutMS is the per-request planning deadline in milliseconds,
	// clamped to the server's MaxTimeout; 0 means the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SimulateRequest is the /v1/simulate request body. Provide either an
// inline Network (the wrsn-gen JSON shape) or N (+Seed) to generate the
// paper's standard deployment.
type SimulateRequest struct {
	// Network is an inline network; nil means generate one from N and
	// Seed with the paper's parameters.
	Network *wrsn.Network `json:"network,omitempty"`
	// N is the sensor count for the generated network.
	N int `json:"n,omitempty"`
	// Seed seeds the generated network.
	Seed int64 `json:"seed,omitempty"`
	// K is the charger count; 0 means 2.
	K int `json:"k,omitempty"`
	// Planner names the algorithm ("" means Appro).
	Planner string `json:"planner,omitempty"`
	// Options holds the planner options, decoded as strictly as
	// PlanRequest.Options.
	Options *core.Options `json:"options,omitempty"`
	// DurationDays is the monitored period; 0 means 30 days (the full
	// paper year is available but rarely what an API caller wants to
	// wait for).
	DurationDays float64 `json:"duration_days,omitempty"`
	// MaxRounds caps the charging rounds; 0 means no cap.
	MaxRounds int `json:"max_rounds,omitempty"`
	// Verify runs the feasibility verifier on every round.
	Verify bool `json:"verify,omitempty"`
	// TimeoutMS is the per-request deadline in milliseconds, clamped to
	// the server's MaxTimeout; 0 means the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SimulateResponse summarizes a simulation run (sim.Result without the
// per-round records, with the headline metrics converted to the units
// the paper's figures use).
type SimulateResponse struct {
	Planner               string  `json:"planner"`
	Rounds                int     `json:"rounds"`
	AvgLongestHours       float64 `json:"avg_longest_hours"`
	MaxLongestHours       float64 `json:"max_longest_hours"`
	AvgDeadPerSensorHours float64 `json:"avg_dead_per_sensor_hours"`
	DeadSensors           int     `json:"dead_sensors"`
	Charges               int     `json:"charges"`
	EnergyDeliveredJ      float64 `json:"energy_delivered_j"`
	Violations            int     `json:"violations"`
	FirstViolation        string  `json:"first_violation,omitempty"`
	EndDays               float64 `json:"end_days"`
}

// errorResponse is the JSON body of every non-2xx /v1 response.
type errorResponse struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// envelopeMembers are the /v1/plan envelope's member names, in the order
// of PlanRequest's fields.
var envelopeMembers = []string{"planner", "instance", "options", "timeout_ms"}

// decodePlanRequest decodes a /v1/plan body, either the envelope or a
// bare instance, in one pass over its top-level object: export.ReadInstance
// reads the instance members, and the envelope's members come back raw.
// The envelope's instance goes through ReadInstance again, the small
// members through decodeStrict. Unknown members are rejected, and so is a
// body mixing the two shapes, so a typoed envelope cannot silently plan a
// zero-value instance.
func decodePlanRequest(body []byte) (*PlanRequest, error) {
	var bare core.Instance
	var req PlanRequest
	envelope := false
	members, err := export.ReadInstance(body, &bare, envelopeMembers, func(member int, raw []byte) error {
		envelope = true
		var err error
		switch member {
		case 0:
			err = decodeStrict(raw, &req.Planner)
		case 1:
			if string(raw) != "null" {
				req.Instance = new(core.Instance)
				_, err = export.ReadInstance(raw, req.Instance, nil, nil)
			}
		case 2:
			err = decodeStrict(raw, &req.Options)
		default:
			err = decodeStrict(raw, &req.TimeoutMS)
		}
		if err != nil {
			return fmt.Errorf("%q: %w", envelopeMembers[member], err)
		}
		return nil
	})
	switch {
	case err != nil:
		return nil, err
	case !envelope:
		return &PlanRequest{Instance: &bare}, nil
	case members > 0:
		return nil, errors.New("body mixes plan envelope members with bare instance members")
	case req.Instance == nil:
		return nil, errors.New(`envelope has no "instance"`)
	}
	return &req, nil
}

// readBody reads at most maxBytes of the request body. The buffer starts
// at Content-Length+1 bytes (the +1 is the room a read at EOF needs), but
// at no more than 1 MiB, and doubles as bytes arrive, never past
// Content-Length+1: a client that declares a large body and sends little
// of it holds little memory.
func readBody(r *http.Request, maxBytes int64) ([]byte, error) {
	if r.ContentLength > maxBytes {
		return nil, fmt.Errorf("body exceeds %d bytes", maxBytes)
	}
	want := maxBytes + 1
	if r.ContentLength >= 0 {
		want = r.ContentLength + 1
	}
	body := make([]byte, 0, min(want, 1<<20))
	src := io.LimitReader(r.Body, maxBytes+1)
	for int64(len(body)) <= maxBytes {
		if len(body) == cap(body) {
			next := 2 * int64(cap(body))
			if int64(cap(body)) < want {
				next = min(next, want)
			}
			body = append(make([]byte, 0, next), body...)
		}
		n, err := src.Read(body[len(body):cap(body)])
		body = body[:len(body)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("read body: %w", err)
		}
	}
	if int64(len(body)) > maxBytes {
		return nil, fmt.Errorf("body exceeds %d bytes", maxBytes)
	}
	return body, nil
}

// decodeStrict unmarshals one JSON value, rejecting unknown fields and
// anything but whitespace after the value.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	finish, ok := s.begin(w, "plan")
	if !ok {
		return
	}
	defer finish()

	raw, err := readBody(r, s.cfg.MaxBodyBytes)
	if err != nil {
		s.writeError(w, "plan", http.StatusBadRequest, err.Error())
		return
	}
	query := r.URL.Query().Get("planner")

	// A byte-identical repeat of a request answered before — the same
	// ?planner= value and body bytes — is answered from the plan cache's
	// body index with the stored response: no decode, validation or key.
	// Router mode leaves the index out: a routed request belongs to its
	// shard's cache.
	var digest plancache.Digest
	indexed := s.cache != nil && s.router == nil
	if indexed {
		digest = bodyDigest(query, raw)
		if body, name, ok := s.cache.Lookup(obs.WithTracer(r.Context(), s.tracer), digest); ok {
			s.writePlan(w, body, name, "hit", time.Now())
			return
		}
	}

	req, err := decodePlanRequest(raw)
	if err != nil {
		s.writeError(w, "plan", http.StatusBadRequest, err.Error())
		return
	}
	if query != "" {
		req.Planner = query
	}
	if err := req.Instance.Validate(); err != nil {
		s.writeError(w, "plan", http.StatusBadRequest, err.Error())
		return
	}
	planner, err := s.cfg.NewPlanner(req.Planner, req.Options)
	if err != nil {
		s.writeError(w, "plan", http.StatusBadRequest, err.Error())
		return
	}

	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	// Router mode: forward the raw body to the shard that owns this
	// plan's canonical cache key, collapsing concurrent identical
	// requests into one upstream fetch. Only when every eligible path is
	// exhausted does the request degrade to the local planning path
	// below, marked X-Plan-Degraded: local.
	if s.router != nil {
		if s.routePlan(ctx, w, r, req, planner, raw) {
			return
		}
		s.router.degraded.Add(1)
		w.Header().Set("X-Plan-Degraded", "local")
	}

	// Cache lookup runs outside the admission pool: a hit is a key hash
	// and a write of the stored response, and should not queue behind a
	// worker slot. Misses plan under admission control and publish their
	// response bytes for the next caller. The key identity (canonical
	// registry name + a seeded planner's seed) comes from plancache.Identity,
	// so an aliased or lowercased ?planner= spelling hits the same entries
	// as the canonical one.
	cacheState := "off"
	var key plancache.Key
	var body []byte
	name := planner.Name()
	if s.cache != nil {
		cacheName, opts := plancache.Identity(planner)
		key = plancache.KeyOf(cacheName, opts, req.Instance)
		cacheState = "miss"
		if hit, hitName, ok := s.cache.Get(ctx, key); ok {
			body, name, cacheState = hit, hitName, "hit"
		}
	}
	start := time.Now()
	if cacheState != "hit" {
		var sched *core.Schedule
		admitted := s.admit(ctx, w, "plan", func(ctx context.Context) error {
			var err error
			sched, err = planner.Plan(ctx, req.Instance)
			return err
		})
		if !admitted {
			return
		}
		// The body is the canonical schedule encoding and nothing else —
		// byte-identical to `wrsn-plan -json` on the same instance. It is
		// built before any header is written, so a schedule whose times
		// overflowed to ±Inf is a 400 rather than a 200 with an empty
		// body; such a plan has no bytes to cache, so its repeat replans.
		if body, err = export.AppendSchedule(nil, sched); err != nil {
			s.writeError(w, "plan", http.StatusBadRequest, err.Error())
			return
		}
		s.cache.Put(ctx, key, name, body)
	}
	// A 200 indexes the request digest to its entry, so the next
	// byte-identical repeat takes the index.
	if indexed {
		s.cache.Index(digest, key)
	}
	s.writePlan(w, body, name, cacheState, start)
}

// bodyDigest is the body-index key of a /v1/plan request: the SHA-256 of
// the ?planner= value, length-prefixed so that no split of one byte
// string into query and body can alias another, then the raw body.
func bodyDigest(query string, body []byte) plancache.Digest {
	h := sha256.New()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(query)))
	h.Write(n[:])
	io.WriteString(h, query)
	h.Write(body)
	var d plancache.Digest
	h.Sum(d[:0])
	return d
}

// writePlan writes a 200 /v1/plan response: the encoded schedule with
// its request metadata in headers.
func (s *Server) writePlan(w http.ResponseWriter, body []byte, planner, cacheState string, start time.Time) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Header().Set("X-Planner", planner)
	w.Header().Set("X-Plan-Cache", cacheState)
	w.Header().Set("X-Plan-Seconds", strconv.FormatFloat(time.Since(start).Seconds(), 'f', 6, 64))
	s.count("plan", http.StatusOK)
	_, _ = w.Write(body) // a failed write means the client has gone
}

// routePlan tries to answer a plan request through the shard router and
// reports whether a response was written. false means no backend could
// answer (all down, breakers open, or attempts exhausted) and the caller
// should plan locally; a context expiry is final and never falls back —
// a deadline-blown request gains nothing from a local plan it cannot
// wait for.
func (s *Server) routePlan(ctx context.Context, w http.ResponseWriter, r *http.Request, req *PlanRequest, planner core.Planner, raw []byte) bool {
	cacheName, opts := plancache.Identity(planner)
	key := plancache.KeyOf(cacheName, opts, req.Instance)
	res, err, shared := s.router.group.Do(key, func() (*proxyResult, error) {
		return s.router.fetch(ctx, key, r.URL.RawQuery, raw)
	})
	if shared {
		s.router.collapsed.Add(1)
	}
	switch {
	case err == nil && res != nil:
		for _, h := range []string{"Content-Type", "X-Planner", "X-Plan-Cache", "X-Plan-Seconds"} {
			if v := res.header.Get(h); v != "" {
				w.Header().Set(h, v)
			}
		}
		w.Header().Set("X-Plan-Backend", res.backend)
		w.WriteHeader(res.status)
		_, _ = w.Write(res.body)
		s.count("plan", res.status)
		return true
	case errors.Is(err, context.DeadlineExceeded):
		s.writeError(w, "plan", http.StatusGatewayTimeout, "deadline exceeded while routing: "+err.Error())
		return true
	case errors.Is(err, context.Canceled):
		s.count("plan", 499)
		return true
	}
	return false
}

// handlePlanners serves GET /v1/planners: the registry's listing of
// every planner the ?planner= parameter resolves — canonical names,
// aliases, capability flags and the default marker.
func (s *Server) handlePlanners(w http.ResponseWriter, _ *http.Request) {
	finish, ok := s.begin(w, "planners")
	if !ok {
		return
	}
	defer finish()
	s.writeJSON(w, "planners", http.StatusOK, registry.List())
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	finish, ok := s.begin(w, "simulate")
	if !ok {
		return
	}
	defer finish()

	body, err := readBody(r, s.cfg.MaxBodyBytes)
	if err != nil {
		s.writeError(w, "simulate", http.StatusBadRequest, err.Error())
		return
	}
	var req SimulateRequest
	if err := decodeStrict(body, &req); err != nil {
		s.writeError(w, "simulate", http.StatusBadRequest, err.Error())
		return
	}
	nw := req.Network
	if nw == nil {
		if req.N <= 0 {
			s.writeError(w, "simulate", http.StatusBadRequest, `provide "network" or a positive "n"`)
			return
		}
		if nw, err = workload.Generate(workload.NewParams(req.N), req.Seed); err != nil {
			s.writeError(w, "simulate", http.StatusBadRequest, err.Error())
			return
		}
	} else {
		if err := nw.Validate(); err != nil {
			s.writeError(w, "simulate", http.StatusBadRequest, err.Error())
			return
		}
		nw.BuildRouting()
	}
	k := req.K
	if k == 0 {
		k = 2
	}
	planner, err := s.cfg.NewPlanner(req.Planner, req.Options)
	if err != nil {
		s.writeError(w, "simulate", http.StatusBadRequest, err.Error())
		return
	}
	days := req.DurationDays
	if days <= 0 {
		days = 30
	}
	cfg := sim.Config{
		Duration:  days * 86400,
		MaxRounds: req.MaxRounds,
		Verify:    req.Verify,
	}

	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	var res *sim.Result
	admitted := s.admit(ctx, w, "simulate", func(ctx context.Context) error {
		out, err := sim.Run(ctx, nw, k, planner, cfg)
		if err != nil {
			return err
		}
		res = out
		return nil
	})
	if !admitted {
		return
	}
	s.writeJSON(w, "simulate", http.StatusOK, SimulateResponse{
		Planner:               res.Planner,
		Rounds:                len(res.Rounds),
		AvgLongestHours:       res.AvgLongest / 3600,
		MaxLongestHours:       res.MaxLongest / 3600,
		AvgDeadPerSensorHours: res.AvgDeadPerSensor / 3600,
		DeadSensors:           res.DeadSensors,
		Charges:               res.Charges,
		EnergyDeliveredJ:      res.EnergyDelivered,
		Violations:            res.Violations,
		FirstViolation:        res.FirstViolation,
		EndDays:               res.End / 86400,
	})
}

// writeJSON writes v as an indented JSON response with the given status
// and records the outcome.
func (s *Server) writeJSON(w http.ResponseWriter, route string, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	s.count(route, status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError writes a JSON error body with the given status and records
// the outcome.
func (s *Server) writeError(w http.ResponseWriter, route string, status int, msg string) {
	s.writeJSON(w, route, status, errorResponse{Error: msg, Status: status})
}

// count records one finished request for /metrics.
func (s *Server) count(route string, status int) {
	key := route + "|" + strconv.Itoa(status)
	s.mu.Lock()
	s.outcomes[key]++
	s.mu.Unlock()
}
