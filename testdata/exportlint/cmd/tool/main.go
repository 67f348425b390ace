package main

import l "fixture/internal/lib"

// local stands in for the library under its unaliased name: lib.TestOnly
// below calls this method, not the library function.
type local struct{}

func (local) TestOnly() int { return 0 }

func main() {
	lib := local{}
	println(l.ViaAlias() + lib.TestOnly())
}
