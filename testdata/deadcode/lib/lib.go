// Package lib is the dead-code guard's fixture: deadcode_test.go's
// TestDeadcodeGuardSelfTest expects the guard to report Orphan and
// Counter.Reset, and nothing else.
package lib

import "fmt"

// Orphan has no caller at all.
func Orphan() int {
	return 1
}

// Counter counts; only the outside module constructs one.
type Counter struct {
	N     int
	Label string `json:"label"` // read only by reflection
}

// NewCounter's only caller is the outside module.
func NewCounter(label string) *Counter {
	return &Counter{Label: label}
}

// String implements fmt.Stringer, which no code here calls directly.
func (c *Counter) String() string {
	return fmt.Sprint(c.N)
}

// Reset is called only by lib_test.go.
func (c *Counter) Reset() {
	c.N = 0
}
