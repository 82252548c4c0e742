package lib

import "testing"

func TestReset(t *testing.T) {
	c := NewCounter("x")
	c.N = 3
	c.Reset()
	if c.N != 0 || Orphan() != 1 {
		t.Fatal(c.N)
	}
}
