package wrsn

import (
	"encoding/json"
	"fmt"
	"io"
)

// Load reads a JSON-encoded network (as cmd/wrsn-gen writes it),
// validates it, and recomputes the derived routing state — parents,
// relay loads and power draws — so that edits to positions or data rates in
// the JSON are reflected consistently.
func Load(r io.Reader) (*Network, error) {
	var nw Network
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&nw); err != nil {
		return nil, fmt.Errorf("wrsn: decode network: %w", err)
	}
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	nw.BuildRouting()
	return &nw, nil
}
