package wrsn

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	nw := lineNetwork()
	nw.BuildRouting()
	buf := encode(t, nw)
	got, err := Load(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sensors) != len(nw.Sensors) {
		t.Fatalf("sensors = %d, want %d", len(got.Sensors), len(nw.Sensors))
	}
	for i := range nw.Sensors {
		a, b := nw.Sensors[i], got.Sensors[i]
		if a.Pos != b.Pos || a.DataRate != b.DataRate || a.Battery != b.Battery {
			t.Fatalf("sensor %d changed across round trip: %+v vs %+v", i, a, b)
		}
		if a.Parent != b.Parent || a.Draw != b.Draw {
			t.Fatalf("sensor %d derived state not rebuilt: %+v vs %+v", i, a, b)
		}
	}
	if got.Gamma != nw.Gamma || got.ChargeRate != nw.ChargeRate {
		t.Error("network parameters changed across round trip")
	}
}

// encode writes nw as cmd/wrsn-gen does: indented JSON.
func encode(t *testing.T, nw *Network) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(nw); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(strings.NewReader(`{"unknown_field": 1}`)); err == nil {
		t.Error("unknown fields accepted")
	}
	// Structurally valid JSON but an invalid network (zero tx range).
	if _, err := Load(strings.NewReader(`{"field":{"min":{"x":0,"y":0},"max":{"x":10,"y":10}}}`)); err == nil {
		t.Error("invalid network accepted")
	}
}

func TestLoadRebuildsRouting(t *testing.T) {
	nw := lineNetwork()
	nw.BuildRouting()
	buf := encode(t, nw)
	// Corrupt the serialized parents; Load must fix them.
	s := strings.ReplaceAll(buf.String(), `"parent": 0`, `"parent": 2`)
	got, err := Load(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	if got.Sensors[1].Parent != 0 {
		t.Errorf("routing not rebuilt: parent = %d, want 0", got.Sensors[1].Parent)
	}
}
