package evsim

import (
	"strings"
	"testing"
)

func TestEventsSorted(t *testing.T) {
	var tl timeline
	tl.add(us(30), "a", "third")
	tl.add(us(10), "b", "first")
	tl.add(us(20), "a", "second")
	ev := tl.sorted()
	if len(ev) != 3 || ev[0].label != "first" || ev[1].label != "second" || ev[2].label != "third" {
		t.Fatalf("marks = %v", ev)
	}
	if len(tl.marks) != 3 {
		t.Fatalf("len = %d", len(tl.marks))
	}
}

func TestStableForEqualTimes(t *testing.T) {
	var tl timeline
	tl.add(us(5), "h", "A")
	tl.add(us(5), "h", "B")
	ev := tl.sorted()
	if ev[0].label != "A" || ev[1].label != "B" {
		t.Fatal("equal-time marks reordered")
	}
}

func TestRenderColumns(t *testing.T) {
	var tl timeline
	tl.add(0, "client", "SEND()")
	tl.add(us(88), "server", "DELIVER()")
	tl.add(us(100), "other", "X")
	out := tl.render("server", "client")
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "SEND()") || strings.Index(lines[1], "SEND()") < 12 {
		t.Fatalf("client column: %q", lines[1])
	}
	if !strings.Contains(lines[2], "DELIVER()") {
		t.Fatalf("server column: %q", lines[2])
	}
	if !strings.Contains(lines[3], "other: X") {
		t.Fatalf("unknown host row: %q", lines[3])
	}
	if !strings.Contains(lines[2], "88") {
		t.Fatalf("missing µs column: %q", lines[2])
	}
	for _, l := range lines {
		if strings.TrimRight(l, " ") != l {
			t.Fatalf("trailing blanks: %q", l)
		}
	}
}
