package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// bodyCase is one /v1/plan request: a ?planner= value and a body.
type bodyCase struct {
	name, planner string
	body          []byte
	// first is the caching server's X-Plan-Cache on the first post of a
	// request answered 200, after every case before it: "miss" plans,
	// "hit" is answered from an entry a differently written request
	// filled (the decode-and-key path).
	first string
}

// bodyIndexCases are the requests of TestBodyIndexMatchesUncached and
// the seeds of FuzzBodyIndex, in order: one instance as bare and envelope
// bodies, compact and reformatted, under the ?planner= spellings appro,
// Appro and K-EDF, then every body TestPlanBadRequests posts.
func bodyIndexCases(tb testing.TB) []bodyCase {
	tb.Helper()
	in := testInstance(40, 2, 11)
	compact, err := json.Marshal(in)
	if err != nil {
		tb.Fatal(err)
	}
	env, err := json.Marshal(PlanRequest{Instance: in})
	if err != nil {
		tb.Fatal(err)
	}
	envKEDF, err := json.Marshal(PlanRequest{Planner: "K-EDF", Instance: in})
	if err != nil {
		tb.Fatal(err)
	}
	indent := func(b []byte) []byte {
		var out bytes.Buffer
		if err := json.Indent(&out, b, "", "\t"); err != nil {
			tb.Fatal(err)
		}
		return out.Bytes()
	}
	cases := []bodyCase{
		{name: "bare compact", body: compact, first: "miss"},
		{name: "bare reformatted", body: indent(compact), first: "hit"},
		{name: "envelope compact", body: env, first: "hit"},
		{name: "envelope reformatted", body: indent(env), first: "hit"},
		{name: "?planner=appro", planner: "appro", body: compact, first: "hit"},
		{name: "?planner=Appro", planner: "Appro", body: compact, first: "hit"},
		{name: "?planner=K-EDF", planner: "K-EDF", body: compact, first: "miss"},
		{name: "envelope K-EDF", body: envKEDF, first: "hit"},
	}
	for _, b := range badPlanBodies {
		cases = append(cases, bodyCase{name: b.name, body: []byte(b.body)})
	}
	return cases
}

// postPlan calls h with one /v1/plan request.
func postPlan(h http.Handler, planner string, body []byte) *httptest.ResponseRecorder {
	target := "/v1/plan"
	if planner != "" {
		target += "?planner=" + url.QueryEscape(planner)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body)))
	return rec
}

// checkBodyIndex posts a request twice to the caching handler and once
// to the uncached one, fails tb unless the three answers agree on status,
// body bytes and X-Planner, and returns the caching handler's two.
func checkBodyIndex(tb testing.TB, cached, uncached http.Handler, planner string, body []byte) (first, second *httptest.ResponseRecorder) {
	tb.Helper()
	first = postPlan(cached, planner, body)
	second = postPlan(cached, planner, body)
	want := postPlan(uncached, planner, body)
	for i, got := range []*httptest.ResponseRecorder{first, second} {
		switch {
		case got.Code != want.Code:
			tb.Fatalf("post %d: status %d, uncached %d (%s)", i+1, got.Code, want.Code, got.Body.Bytes())
		case !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()):
			tb.Fatalf("post %d: body %q differs from the uncached %q", i+1, truncate(got.Body.Bytes()), truncate(want.Body.Bytes()))
		case got.Header().Get("X-Planner") != want.Header().Get("X-Planner"):
			tb.Fatalf("post %d: X-Planner %q, uncached %q", i+1, got.Header().Get("X-Planner"), want.Header().Get("X-Planner"))
		}
	}
	return first, second
}

// TestBodyIndexMatchesUncached holds both cache paths to a server without
// a cache: a repeated request is answered from the body index, and a
// request written differently from one answered before from the stored
// bytes of its entry, with the same status, bytes and X-Planner. A 400 is
// never cached: an overflowing plan has no bytes, so its second post
// replans.
func TestBodyIndexMatchesUncached(t *testing.T) {
	cached := New(Config{})
	uncached := New(Config{CacheCapacity: -1})
	for _, tc := range bodyIndexCases(t) {
		before := cached.cache.Stats()
		first, second := checkBodyIndex(t, cached.Handler(), uncached.Handler(), tc.planner, tc.body)
		after := cached.cache.Stats()
		bodyHits, hits := after.BodyHits-before.BodyHits, after.Hits-before.Hits
		if first.Code != http.StatusOK {
			if bodyHits != 0 {
				t.Errorf("%s: a %d answer was indexed (%d body-index hits)", tc.name, first.Code, bodyHits)
			}
			if strings.HasPrefix(tc.name, "overflowing") && (hits != 0 || after.Puts != before.Puts) {
				t.Errorf("%s: an overflowing plan was cached: %d hits, %d puts", tc.name, hits, after.Puts-before.Puts)
			}
			continue
		}
		if c := first.Header().Get("X-Plan-Cache"); c != tc.first {
			t.Errorf("%s: first post X-Plan-Cache %q, want %q", tc.name, c, tc.first)
		}
		if c := second.Header().Get("X-Plan-Cache"); c != "hit" || bodyHits != 1 {
			t.Errorf("%s: second post X-Plan-Cache %q with %d body-index hits, want a hit from the index", tc.name, c, bodyHits)
		}
	}
}

// TestPlanOptionsDoNotAlias posts one instance in BiLevel envelopes under
// seeds 1 and 2, which plan it differently, and requires two cache
// entries, each answering its repeats — byte-identical ones from the body
// index, a ?planner= spelling through the key — with its own first bytes.
// Appro reads no option, so an Appro envelope under options.Seed 5
// answers the bare body's bytes from the bare body's entry.
func TestPlanOptionsDoNotAlias(t *testing.T) {
	in := testInstance(120, 2, 3)
	envelope := func(planner string, seed int64) []byte {
		body, err := json.Marshal(PlanRequest{Planner: planner, Instance: in, Options: &core.Options{Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	s := New(Config{})
	h := s.Handler()
	seeded := [][]byte{envelope("BiLevel", 1), envelope("BiLevel", 2)}
	var firsts [][]byte
	for _, body := range seeded {
		first := postPlan(h, "", body)
		if first.Code != http.StatusOK || first.Header().Get("X-Plan-Cache") != "miss" {
			t.Fatalf("first post: status %d, X-Plan-Cache %q, want 200 and miss", first.Code, first.Header().Get("X-Plan-Cache"))
		}
		firsts = append(firsts, first.Body.Bytes())
	}
	if bytes.Equal(firsts[0], firsts[1]) {
		t.Fatal("BiLevel seeds 1 and 2 plan the instance alike, so the test cannot tell their entries apart")
	}
	for i, body := range seeded {
		for _, planner := range []string{"", "bilevel"} {
			rec := postPlan(h, planner, body)
			if rec.Header().Get("X-Plan-Cache") != "hit" || !bytes.Equal(rec.Body.Bytes(), firsts[i]) {
				t.Errorf("seed %d, ?planner=%q: X-Plan-Cache %q, want a hit with the body's own first bytes", i+1, planner, rec.Header().Get("X-Plan-Cache"))
			}
		}
	}

	bare, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	want := postPlan(h, "", bare)
	if want.Code != http.StatusOK || want.Header().Get("X-Plan-Cache") != "miss" {
		t.Fatalf("bare post: status %d, X-Plan-Cache %q, want 200 and miss", want.Code, want.Header().Get("X-Plan-Cache"))
	}
	rec := postPlan(h, "", envelope("Appro", 5))
	if rec.Header().Get("X-Plan-Cache") != "hit" || !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("Appro envelope under Seed 5: X-Plan-Cache %q, want a hit with the bare body's bytes", rec.Header().Get("X-Plan-Cache"))
	}
	if st := s.cache.Stats(); st.Size != 3 || st.Misses != 3 || st.Hits != 5 || st.BodyHits != 2 {
		t.Errorf("stats %+v: want three entries, three misses and five hits, two of them from the index", st)
	}
}

// FuzzBodyIndex holds the body index to the uncached path on any body
// and ?planner= value: posted twice to a caching server, a request gets
// the status, bytes and X-Planner a server without a cache answers. The
// caching server is shared across inputs, so entries and digests of
// earlier inputs are in play.
func FuzzBodyIndex(f *testing.F) {
	for _, tc := range bodyIndexCases(f) {
		f.Add(tc.planner, tc.body)
	}
	cached := New(Config{CacheCapacity: 8})
	uncached := New(Config{CacheCapacity: -1})
	f.Fuzz(func(t *testing.T, planner string, body []byte) {
		if req, err := decodePlanRequest(body); err == nil {
			// Keep plans small, and leave out deadlines, whose outcome
			// depends on timing rather than on the request.
			if req.Instance.K > 16 || len(req.Instance.Requests) > 200 || req.TimeoutMS != 0 {
				t.Skip("plan too large, or its outcome timing-dependent")
			}
		}
		checkBodyIndex(t, cached.Handler(), uncached.Handler(), planner, body)
	})
}

// TestBodyIndexConcurrent posts the same and distinct bodies from several
// goroutines at once to a cache small enough to evict, so lookups,
// stores and evictions interleave, and requires every answer to be the
// uncached reference bytes. Run it with -race -count=10.
func TestBodyIndexConcurrent(t *testing.T) {
	s := New(Config{CacheCapacity: 3})
	uncached := New(Config{CacheCapacity: -1})
	var bodies, want [][]byte
	for i := 0; i < 6; i++ {
		body, err := json.Marshal(testInstance(30, 2, int64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		ref := postPlan(uncached.Handler(), "", body)
		if ref.Code != http.StatusOK {
			t.Fatalf("reference plan %d: status %d", i, ref.Code)
		}
		bodies, want = append(bodies, body), append(want, ref.Body.Bytes())
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				j := 0 // every other request repeats one shared body
				if i%2 == 1 {
					j = (g + i) % len(bodies)
				}
				rec := postPlan(s.Handler(), "", bodies[j])
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want[j]) {
					t.Errorf("goroutine %d request %d (body %d): status %d, bytes differ from the reference", g, i, j, rec.Code)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.cache.Stats(); st.BodyHits == 0 || st.Evictions == 0 {
		t.Errorf("stats %+v: want body-index hits and evictions", st)
	}
}
