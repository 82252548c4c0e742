package export

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"repro/internal/core"
)

// WriteSchedule writes the schedule as indented JSON followed by a
// newline, the bytes AppendSchedule builds. This is the one canonical
// schedule encoding: both `wrsn-plan -json` and the planning service's
// /v1/plan response body go through it, which is what makes the two
// byte-identical for the same instance (the serve golden test and the CI
// serve-smoke job diff them). A NaN or infinite time is an error, and
// nothing is written.
func WriteSchedule(w io.Writer, s *core.Schedule) error {
	b, err := AppendSchedule(nil, s)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// AppendSchedule appends the schedule to dst as the bytes encoding/json
// writes for a core.Schedule through an Encoder with SetIndent("", "  "),
// without reflection: nil Stops and Covers are null, a zero WaitTime is
// omitted, and floats take encoding/json's formatting. A NaN or infinite
// time has no JSON encoding: AppendSchedule then returns dst unchanged
// and an error naming the value.
func AppendSchedule(dst []byte, s *core.Schedule) ([]byte, error) {
	start := len(dst)
	b := slices.Grow(dst, scheduleSize(s))
	fail := func(f float64, format string, args ...any) ([]byte, error) {
		return dst[:start], fmt.Errorf("export: schedule %s = %v has no JSON encoding", fmt.Sprintf(format, args...), f)
	}
	b = append(b, "{\n  \"tours\": "...)
	switch {
	case s.Tours == nil:
		b = append(b, "null"...)
	case len(s.Tours) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, "[\n"...)
		for i, t := range s.Tours {
			b = append(b, "    {\n      \"stops\": "...)
			switch {
			case t.Stops == nil:
				b = append(b, "null"...)
			case len(t.Stops) == 0:
				b = append(b, "[]"...)
			default:
				b = append(b, "[\n"...)
				for j, st := range t.Stops {
					b = append(b, "        {\n          \"node\": "...)
					b = strconv.AppendInt(b, int64(st.Node), 10)
					b = append(b, ",\n          \"arrive\": "...)
					if !finite(st.Arrive) {
						return fail(st.Arrive, "tours[%d].stops[%d].arrive", i, j)
					}
					b = appendFloat(b, st.Arrive)
					b = append(b, ",\n          \"duration\": "...)
					if !finite(st.Duration) {
						return fail(st.Duration, "tours[%d].stops[%d].duration", i, j)
					}
					b = appendFloat(b, st.Duration)
					b = append(b, ",\n          \"covers\": "...)
					switch {
					case st.Covers == nil:
						b = append(b, "null"...)
					case len(st.Covers) == 0:
						b = append(b, "[]"...)
					default:
						b = append(b, "[\n"...)
						for c, v := range st.Covers {
							b = append(b, "            "...)
							b = strconv.AppendInt(b, int64(v), 10)
							b = appendSep(b, c, len(st.Covers))
						}
						b = append(b, "          ]"...)
					}
					b = append(b, "\n        }"...)
					b = appendSep(b, j, len(t.Stops))
				}
				b = append(b, "      ]"...)
			}
			b = append(b, ",\n      \"delay\": "...)
			if !finite(t.Delay) {
				return fail(t.Delay, "tours[%d].delay", i)
			}
			b = appendFloat(b, t.Delay)
			b = append(b, "\n    }"...)
			b = appendSep(b, i, len(s.Tours))
		}
		b = append(b, "  ]"...)
	}
	b = append(b, ",\n  \"longest\": "...)
	if !finite(s.Longest) {
		return fail(s.Longest, "longest")
	}
	b = appendFloat(b, s.Longest)
	if s.WaitTime != 0 { // omitempty
		b = append(b, ",\n  \"wait_time\": "...)
		if !finite(s.WaitTime) {
			return fail(s.WaitTime, "wait_time")
		}
		b = appendFloat(b, s.WaitTime)
	}
	return append(b, "\n}\n"...), nil
}

// scheduleSize is about the length of s's encoding: the indented member
// names, a 7-digit node per stop and cover, and 18 characters per float.
func scheduleSize(s *core.Schedule) int {
	n := 64
	for _, t := range s.Tours {
		n += 64
		for _, st := range t.Stops {
			n += 176 + 22*len(st.Covers)
		}
	}
	return n
}

// appendSep ends element i of an n-element indented array.
func appendSep(b []byte, i, n int) []byte {
	if i < n-1 {
		return append(b, ",\n"...)
	}
	return append(b, '\n')
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in 'f' form unless 0 < |f| < 1e-6 or
// |f| >= 1e21, then in 'e' form with a two-digit negative exponent
// shortened (e-07 becomes e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// WriteInstance writes the instance as indented JSON followed by a
// newline, in exactly the shape /v1/plan accepts as a bare-instance
// request body (`wrsn-plan -dump-instance` uses it to hand an instance
// to the service) and ReadInstance reads.
func WriteInstance(w io.Writer, in *core.Instance) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(in)
}
