// Package lib is the fixture library of the test-only-export lint.
package lib

// TestOnly has no caller outside lib_test.go, so the lint flags it.
func TestOnly() int { return 1 }

// Recursive calls only itself, which does not count as a caller.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Shadowed shares its name with a struct field and a method that
// non-test code uses; neither counts as a reference to it.
func Shadowed() int { return 2 }

// ForBenchmark is called only from benchmark/.
func ForBenchmark() int { return 3 }

// ForExample is called only from examples/.
func ForExample() int { return 4 }

// ViaAlias is called only through an aliased import.
func ViaAlias() int { return 5 + sum() }

// InPackage is called only inside its own package.
func InPackage() int { return 6 }

// T has a field named after Shadowed.
type T struct{ Shadowed int }

// U has a method named after Shadowed.
type U struct{}

// Shadowed returns the field's namesake.
func (U) Shadowed() int { return T{Shadowed: 7}.Shadowed }

// sum and used are unexported, and ViaAlias and sum call them.
func sum() int { return InPackage() + U{}.Shadowed() + U{}.used() }

func (U) used() int { return 10 }

// V has a method only lib_test.go calls, which the lint flags, and one
// that no file selects but a non-test interface declares, which it does
// not.
type V struct{}

// TestOnlyMethod has no caller outside lib_test.go.
func (*V) TestOnlyMethod() int { return 8 }

// ViaInterface satisfies the interface cmd/tool declares.
func (V) ViaInterface() int { return 9 }

// testOnly and testOnlyMethod are unexported and only lib_test.go calls
// them, so the lint flags both.
func testOnly() int { return 11 }

func (V) testOnlyMethod() int { return 12 }
