package lib

import "testing"

func TestCalls(t *testing.T) {
	if TestOnly()+Recursive(3)+Shadowed()+sum()+(&V{}).TestOnlyMethod()+testOnly()+(V{}).testOnlyMethod() == 0 {
		t.Fatal("zero")
	}
}
