// Command outside is the fixture's outside caller, as e2ebench is to the
// repro module.
package main

import (
	"fmt"

	"fixture/lib"
)

func main() {
	fmt.Println(lib.NewCounter("hits"))
}
