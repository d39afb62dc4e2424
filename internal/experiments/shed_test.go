package experiments

import "testing"

// TestShedHarness pins the fixture the benchmarks stand on: Deliver
// routes to the admitted connection, Shed is refused every time.
func TestShedHarness(t *testing.T) {
	sh, err := NewShedHarness(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	before := sh.Server.Snapshot()
	for i := 0; i < 100; i++ {
		sh.Deliver()
		sh.Shed()
	}
	after := sh.Server.Snapshot()
	if after.Conns != 1 {
		t.Fatalf("Conns = %d, want 1", after.Conns)
	}
	if got := after.ShedTotal - before.ShedTotal; got != 100 {
		t.Fatalf("ShedTotal grew %d, want 100", got)
	}
	if after.StormsDetected != 0 {
		t.Fatalf("quiet harness tripped the storm detector")
	}
}
