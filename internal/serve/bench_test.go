package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/export"
	"repro/internal/workload"
)

// BenchmarkServePlan measures sustained /v1/plan throughput over real
// HTTP (httptest server + default transport). The warm variant replans
// one instance and serves from the shared plan cache — the hot replan
// path; the cold variant disables the cache so every request pays a full
// Appro plan. e2ebench's serve-mix workload measures the service's
// latency and throughput end to end.
func BenchmarkServePlan(b *testing.B) {
	body, err := json.Marshal(testInstance(200, 2, 1))
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, cfg Config) {
		s := New(cfg)
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	}
	b.Run("warm-cache", func(b *testing.B) { run(b, Config{}) })
	b.Run("cold-no-cache", func(b *testing.B) { run(b, Config{CacheCapacity: -1}) })
}

// BenchmarkPlanHit times one cache-hit /v1/plan handler call without a
// socket. Bodies are what `wrsn-plan -dump-instance` writes for the
// instance `wrsn-plan -n <n> -k <k> -field <side> -seed 1` plans: the
// paper-scale round and e2ebench's verified-30k instance. The plain case
// repeats the body byte for byte, so the body index answers it: the body
// read, one SHA-256 and the stored response. The reformatted case gives
// each call a body the index has not seen (one more leading space than
// the call before), so it takes the decode-and-key path: the body read,
// one SHA-256, the decode, validation and the cache key, then the same
// stored response.
func BenchmarkPlanHit(b *testing.B) {
	for _, c := range []struct {
		n, k int
		side float64
	}{{1200, 2, 100}, {30000, 4, 500}} {
		var body bytes.Buffer
		if err := export.WriteInstance(&body, workload.RequestSet(c.n, c.k, 1, c.side)); err != nil {
			b.Fatal(err)
		}
		for _, reformat := range []bool{false, true} {
			name := fmt.Sprintf("n=%d", c.n)
			if reformat {
				name += ",reformatted"
			}
			b.Run(name, func(b *testing.B) {
				s := New(Config{})
				defer s.Close()
				h := s.Handler()
				var pad []byte
				call := func(want string) {
					rec := httptest.NewRecorder()
					req := httptest.NewRequest(http.MethodPost, "/v1/plan",
						io.MultiReader(bytes.NewReader(pad), bytes.NewReader(body.Bytes())))
					req.ContentLength = int64(len(pad) + body.Len())
					h.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK || rec.Header().Get("X-Plan-Cache") != want {
						b.Fatalf("status %d, X-Plan-Cache %q, want 200 and %q", rec.Code, rec.Header().Get("X-Plan-Cache"), want)
					}
				}
				call("miss")
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if reformat {
						pad = append(pad, ' ')
					}
					call("hit")
				}
			})
		}
	}
}
