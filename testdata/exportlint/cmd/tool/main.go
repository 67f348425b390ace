package main

import l "fixture/internal/lib"

// local stands in for the library under its unaliased name: lib.TestOnly
// below calls this method, not the library function.
type local struct{}

func (local) TestOnly() int { return 0 }

// viaInterface declares lib.V's method, which no file selects.
type viaInterface interface{ ViaInterface() int }

var _ viaInterface = l.V{}

func main() {
	lib := local{}
	println(l.ViaAlias() + lib.TestOnly())
}
