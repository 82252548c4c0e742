package export

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// TestReadInstanceMembersMatchJSONTags holds ReadInstance's member lists
// to the json tags WriteInstance encodes from: a field added to
// core.Instance, core.Request or geom.Point must be readable too.
func TestReadInstanceMembersMatchJSONTags(t *testing.T) {
	for _, c := range []struct {
		typ     reflect.Type
		members []string
	}{
		{reflect.TypeOf(core.Instance{}), instanceMembers},
		{reflect.TypeOf(core.Request{}), requestMembers},
		{reflect.TypeOf(geom.Point{}), pointMembers},
	} {
		var tagged []string
		for i := 0; i < c.typ.NumField(); i++ {
			f := c.typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			switch {
			case f.Anonymous:
				t.Errorf("%v.%s: an embedded field's members would be flattened, which ReadInstance does not do", c.typ, f.Name)
			case !f.IsExported() || name == "-":
				continue
			case name == "":
				name = f.Name
			}
			tagged = append(tagged, name)
		}
		got := slices.Clone(c.members)
		slices.Sort(got)
		slices.Sort(tagged)
		if !slices.Equal(got, tagged) {
			t.Errorf("%v: ReadInstance reads members %v, the json tags name %v", c.typ, got, tagged)
		}
	}
}
