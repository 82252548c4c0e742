package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/geom"
)

// referenceDecodePlanRequest is the two-pass, reflective decoder the
// one-pass decodePlanRequest replaced, kept as its oracle: a strict
// envelope decode, then on failure a strict bare-instance decode.
func referenceDecodePlanRequest(body []byte) (*PlanRequest, error) {
	var req PlanRequest
	envErr := decodeStrict(body, &req)
	if envErr == nil && req.Instance != nil {
		return &req, nil
	}
	var in core.Instance
	if bareErr := decodeStrict(body, &in); bareErr != nil {
		if envErr != nil {
			return nil, fmt.Errorf("body is neither a plan envelope (%v) nor a bare instance (%v)", envErr, bareErr)
		}
		return nil, errors.New(`envelope has no "instance"`)
	}
	return &PlanRequest{Instance: &in}, nil
}

// checkDecodeMatchesReference fails t unless decodePlanRequest and the
// reference both reject body, or both accept it with equal values and
// equal float bits. Bodies that repeat a member name within one object
// are exempt: there the reference merges and decodePlanRequest rejects.
func checkDecodeMatchesReference(t *testing.T, body []byte) {
	t.Helper()
	if repeatsName(body) {
		return
	}
	got, gotErr := decodePlanRequest(body)
	want, wantErr := referenceDecodePlanRequest(body)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("body %q: decode error %v, reference error %v", body, gotErr, wantErr)
	case gotErr != nil:
		return
	case !reflect.DeepEqual(got, want):
		t.Fatalf("body %q: decoded %+v, reference %+v", body, got, want)
	case !sameFloatBits(got.Instance, want.Instance):
		t.Fatalf("body %q: float bits differ from the reference (signed zeros?)", body)
	}
}

// sameFloatBits compares every float of two instances bit for bit;
// reflect.DeepEqual takes -0 and 0 as equal.
func sameFloatBits(a, b *core.Instance) bool {
	fa, fb := instanceFloats(a), instanceFloats(b)
	if len(fa) != len(fb) {
		return false
	}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return true
}

func instanceFloats(in *core.Instance) []float64 {
	fs := []float64{in.Depot.X, in.Depot.Y, in.Gamma, in.Speed}
	for _, r := range in.Requests {
		fs = append(fs, r.Pos.X, r.Pos.Y, r.Duration, r.Lifetime)
	}
	return fs
}

// repeatsName reports whether any object of the JSON value in body holds
// two member names that encoding/json would fold to one field name. A
// body that is not valid JSON repeats nothing.
func repeatsName(body []byte) bool {
	type frame struct {
		object, wantKey bool
		keys            []string
	}
	var stack []*frame
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		if d, ok := tok.(json.Delim); ok && (d == '{' || d == '[') {
			stack = append(stack, &frame{object: d == '{', wantKey: d == '{'})
			continue
		}
		if len(stack) > 0 {
			if top := stack[len(stack)-1]; top.wantKey {
				if key, ok := tok.(string); ok {
					for _, k := range top.keys {
						if strings.EqualFold(k, key) {
							return true
						}
					}
					top.keys = append(top.keys, key)
					top.wantKey = false
					continue
				}
			}
		}
		if d, ok := tok.(json.Delim); ok && (d == '}' || d == ']') {
			stack = stack[:len(stack)-1]
		}
		// A value has ended: the top-level one, or a member's or an
		// element's.
		if len(stack) == 0 {
			return false
		}
		if top := stack[len(stack)-1]; top.object {
			top.wantKey = true
		}
	}
}

// decodeCorpus returns the bodies both the table test and the fuzz target
// start from: every shape the service accepts, and the ways each goes
// wrong.
func decodeCorpus(t testing.TB) [][]byte {
	in := testInstance(5, 2, 11)
	in.Requests[1].Lifetime = 0
	var indented bytes.Buffer
	if err := export.WriteInstance(&indented, in); err != nil {
		t.Fatal(err)
	}
	compact, _ := json.Marshal(in)
	env := PlanRequest{Planner: "K-EDF", Instance: in, Options: &core.Options{Seed: 4}, TimeoutMS: 900}
	envCompact, _ := json.Marshal(env)
	envIndented, _ := json.MarshalIndent(env, "", "\t")
	const inst = `{"depot":{"x":1,"y":2},"requests":[{"pos":{"x":3,"y":4},"duration":5,"lifetime":6}],"gamma":2.7,"speed":1,"k":2}`
	withK := func(k string) string { return `{"depot":{"x":0,"y":0},"gamma":2.7,"speed":1,"k":` + k + `}` }
	withGamma := func(g string) string { return `{"depot":{"x":0,"y":0},"gamma":` + g + `,"speed":1,"k":1}` }
	bodies := []string{
		string(indented.Bytes()), string(compact), string(envCompact), string(envIndented),
		inst, " \t\r\n" + inst + "\n\t ",
		`{"instance":` + inst + `}`, `{"instance":` + inst + `,"planner":"bilevel","timeout_ms":-5}`,
		`{"planner":null,"instance":` + inst + `,"options":null,"timeout_ms":null}`,
		`{"instance":` + inst + `,"options":{"Seed":3}}`,
		// Case-folded and escaped names, including the Kelvin sign and
		// the long s that encoding/json folds to k and s.
		`{"K":1,"SPEED":1,"Gamma":2.7,"DePoT":{"X":1,"Y":2}}`,
		"{\"K\":1,\"ſpeed\":1}",
		`{"depot":{"x":1,"y":2},"requests":[{"pos":{"x":1,"y":1},"duration":1}],"k":1}`,
		`{"K":3}`, `{"ſpeed":3}`, `{"Instance":` + inst + `,"PLANNER":"appro","Timeout_MS":3}`,
		`{"\u0064epot":{"\u0078":1,"y":2},"\u006B":1}`, `{"\u0069nstance":` + inst + `,"pl\u0061nner":"Appro"}`,
		`{"k\u0000":1}`, `{"\ud800":1}`, `{"\ud83d\ude00":1}`, `{"😀":1}`, `{"k\/":1}`, `{"\k":1}`,
		`{"speed\n":1}`, `{"":1}`,
		// null members, null elements, null bodies.
		`null`, ` null `, `{"depot":null,"requests":null,"gamma":null,"speed":null,"k":null}`,
		`{"requests":[null]}`, `{"requests":[null,{"pos":null,"duration":null,"lifetime":null}]}`,
		`{"requests":[]}`, `{"requests":[ ]}`, `{"instance":null}`, `{"instance":{}}`, `{"planner":"Appro"}`,
		// k's integer rules.
		withK("1.0"), withK("1e0"), withK("9223372036854775808"), withK("9223372036854775807"),
		withK("-9223372036854775808"), withK("-0"), withK("-1"), withK(`"1"`), withK("true"), withK("01"),
		withK("1e"), withK("{}"), withK("[]"),
		// Float rules: range, signed zero, leading zeros, the edges of
		// exact conversion (2^53, 10^±22), long exponents, strings for
		// numbers.
		withGamma("1e400"), withGamma("-1e400"), withGamma("1e-400"), withGamma("-0"), withGamma("-0.0"),
		withGamma("0"), withGamma("00"), withGamma("01.5"), withGamma("-01"), withGamma(`"2.7"`),
		withGamma("5e-324"), withGamma("1.7976931348623157e308"), withGamma("0.1"), withGamma("1E+2"),
		withGamma("9007199254740992"), withGamma("9007199254740993"), withGamma("90071992547409921"),
		withGamma("9007199254.740992"), withGamma("9007199254.740993"), withGamma("-90071992547409.93"),
		withGamma("9007199254740992e1"), withGamma("9007199254740993e1"), withGamma("9007199254740993e2"),
		withGamma("1e22"), withGamma("1e23"), withGamma("1e-22"), withGamma("1e-23"),
		withGamma("0." + strings.Repeat("0", 999) + "1e10000"), withGamma("0." + strings.Repeat("0", 999) + "1e10005"),
		withGamma("1" + strings.Repeat("0", 1000) + "e-10000"), withGamma("1e0000000000000000000001"),
		withGamma("1e-99999999999999999999"),
		withGamma("0.0000000000000000000001"), withGamma("4.8347263958747351e1"),
		withGamma("123456789012345678901234567890"), withGamma("1.000000000000000000000000001"),
		withGamma("1."), withGamma(".5"), withGamma("+1"), withGamma("-"), withGamma("1e+"), withGamma("0x10"),
		withGamma("Infinity"), withGamma("NaN"), withGamma("nul"), withGamma("nullx"), withGamma("1 2"),
		// Unknown members at every level, and mixed shapes.
		`{"nope":1}`, `{"depot":{"x":1,"z":2}}`, `{"requests":[{"pos":{"x":1,"y":1},"id":7}]}`,
		`{"instance":{"bogus":1}}`, `{"instance":` + inst + `,"options":{"Nope":1}}`,
		`{"instance":` + inst + `,"options":{"Workers":2}}`,
		`{"planner":"Appro","k":1}`, `{"instance":` + inst + `,"gamma":2.7}`, `{"k":1,"instance":null}`,
		`{"k":1,"planner":null}`, `{"instance":` + inst + `,"timeout_ms":1.5}`, `{"instance":5}`,
		`{"instance":[]}`, `{"planner":5,"instance":` + inst + `}`, `{"options":[[[[]]]],"instance":{}}`,
		// Shapes that are not an object, and trailing data.
		``, ` `, `{}`, `[]`, `""`, `1`, `true`, `{} `, `{}]`, `{}}`, `{} {}`, `{}x`, inst + `]}`, inst + `}`,
		`{"instance":` + inst + `}]`, `{`, `{"k"`, `{"k":`, `{"k":1`, `{"k":1,}`, `{,}`, `{"k" 1}`,
		`{"depot":{"x":1,"y":2},}`, `{"requests":[{},]}`, `{"requests":[1]}`, `{"requests":{}}`,
		`{"depot":[]}`, `{"depot":5}`,
		// Invalid UTF-8 and control bytes, in names, values and between.
		"{\"k\xff\":1}", "{\"planner\":\"\xff\",\"instance\":{}}", "{\xff}", "{\"k\x01\":1}",
		"{\"planner\":\"a\tb\",\"instance\":{}}", `{"planner":"é\ud800x","instance":{}}`,
		`{"planner":"\x","instance":{}}`, `{"planner":"\u12","instance":{}}`, "\xef\xbb\xbf{}",
	}
	out := make([][]byte, len(bodies))
	for i, b := range bodies {
		out[i] = []byte(b)
	}
	return out
}

// TestDecodePlanRequestMatchesReference pins the one-pass decoder to the
// two-pass encoding/json reference on every corpus body.
func TestDecodePlanRequestMatchesReference(t *testing.T) {
	for _, body := range decodeCorpus(t) {
		checkDecodeMatchesReference(t, body)
	}
	// Agreement alone would pass two decoders that reject everything:
	// these bodies must decode, and to these instances.
	for body, want := range map[string]core.Instance{
		"{\"\u212a\":3}":                          {K: 3}, // the Kelvin sign folds to k
		"{\"\u017fpeed\":3}":                      {Speed: 3},
		`{"\u0064epot":{"\u0078":1,"Y":2},"K":1}`: {Depot: geom.Pt(1, 2), K: 1},
		`{"requests":[null]}`:                     {Requests: []core.Request{{}}},
		`{"requests":[]}`:                         {Requests: []core.Request{}},
		`{"gamma":-0}`:                            {Gamma: math.Copysign(0, -1)},
		`null`:                                    {},
	} {
		got, err := decodePlanRequest([]byte(body))
		if err != nil || !reflect.DeepEqual(*got.Instance, want) || !sameFloatBits(got.Instance, &want) {
			t.Errorf("%s: decoded %+v, %v; want %+v", body, got, err, want)
		}
	}
}

func FuzzDecodePlanRequestMatchesReference(f *testing.F) {
	for _, body := range decodeCorpus(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeMatchesReference(t, body)
	})
}

// TestPlanRepeatedMemberIs400 pins the one deliberate narrowing against
// encoding/json: a member name repeated within one object, at any level
// and in either shape, is a 400, where encoding/json would merge.
func TestPlanRepeatedMemberIs400(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const inst = `{"depot":{"x":0,"y":0},"requests":[{"pos":{"x":1,"y":1},"duration":60}],"gamma":2.7,"speed":1,"k":1}`
	for _, body := range []string{
		`{"depot":{"x":0,"y":0},"gamma":2.7,"speed":1,"k":1,"k":2}`,
		`{"depot":{"x":0,"y":0},"gamma":2.7,"speed":1,"k":1,"K":2}`,
		`{"depot":{"x":0,"x":1,"y":0},"gamma":2.7,"speed":1,"k":1}`,
		`{"requests":[{"pos":{"x":1,"y":1},"duration":60,"duration":70}],"gamma":2.7,"speed":1,"k":1}`,
		`{"requests":[{"pos":{"x":1,"y":1,"Y":2},"duration":60}],"gamma":2.7,"speed":1,"k":1}`,
		`{"instance":` + inst + `,"instance":` + inst + `}`,
		`{"instance":` + inst + `,"planner":"Appro","Planner":"K-EDF"}`,
	} {
		if !repeatsName([]byte(body)) {
			t.Errorf("repeatsName misses the repeat in %s", body)
		}
		resp, out := postJSON(t, ts.URL+"/v1/plan", []byte(body))
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(out), "repeated") {
			t.Errorf("%s: status %d (%s), want a 400 naming the repeat", body, resp.StatusCode, out)
		}
	}
}

// TestReadBodyPresized checks the body reader on the ways a body arrives:
// an exact Content-Length below and above the 1 MiB first buffer, one
// that declares far more than is sent, none (chunked), and one that
// claims more than the limit.
func TestReadBodyPresized(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 3000)
	req := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body))
	got, err := readBody(req, 1<<20)
	if err != nil || !bytes.Equal(got, body) || cap(got) != len(body)+1 {
		t.Errorf("sized body: len %d cap %d err %v, want %d bytes in one buffer", len(got), cap(got), err, len(body))
	}
	large := bytes.Repeat([]byte("y"), 3<<20)
	req = httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(large))
	if got, err = readBody(req, 32<<20); err != nil || !bytes.Equal(got, large) || cap(got) != len(large)+1 {
		t.Errorf("3 MiB body: len %d cap %d err %v, want the last buffer sized to Content-Length+1", len(got), cap(got), err)
	}
	// A client that declares 30 MiB and sends 3000 bytes must not get a
	// 30 MiB buffer.
	req = httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body))
	req.ContentLength = 30 << 20
	if got, err = readBody(req, 32<<20); err != nil || !bytes.Equal(got, body) || cap(got) > 1<<20 {
		t.Errorf("over-declared body: len %d cap %d err %v, want at most a 1 MiB buffer", len(got), cap(got), err)
	}
	req = httptest.NewRequest(http.MethodPost, "/v1/plan", io.MultiReader(bytes.NewReader(body)))
	req.ContentLength = -1
	if got, err = readBody(req, 1<<20); err != nil || !bytes.Equal(got, body) {
		t.Errorf("unsized body: len %d err %v", len(got), err)
	}
	req = httptest.NewRequest(http.MethodPost, "/v1/plan", io.MultiReader(bytes.NewReader(body)))
	req.ContentLength = -1
	if _, err = readBody(req, 100); err == nil {
		t.Error("an unsized body over the limit was accepted")
	}
	req = httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body))
	if _, err = readBody(req, 100); err == nil {
		t.Error("a Content-Length over the limit was accepted")
	}
}
