package evsim

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// mark is one point on a timeline.
type mark struct {
	at    time.Duration // offset from the timeline origin
	host  string        // which host the event happened on
	label string        // e.g. "SEND()", "POSTSEND DONE"
}

// timeline is an append-only list of marks: the paper's Figure 4 (the
// round-trip execution breakdown).
type timeline struct {
	marks []mark
}

// add records a mark.
func (tl *timeline) add(at time.Duration, host, label string) {
	tl.marks = append(tl.marks, mark{at: at, host: host, label: label})
}

// sorted returns the marks in time order (stable for equal times).
func (tl *timeline) sorted() []mark {
	out := append([]mark(nil), tl.marks...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// render draws the timeline as two labelled columns (the paper's Figure 4
// layout: receiver left, sender right), one row per mark, with no
// trailing blanks.
func (tl *timeline) render(leftHost, rightHost string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s  %-28s %s\n", "µs", leftHost, rightHost)
	for _, m := range tl.sorted() {
		l, r := "", ""
		switch m.host {
		case leftHost:
			l = m.label
		case rightHost:
			r = m.label
		default:
			l = m.host + ": " + m.label
		}
		row := fmt.Sprintf("%10.0f  %-28s %-28s", float64(m.at)/float64(time.Microsecond), l, r)
		b.WriteString(strings.TrimRight(row, " ") + "\n")
	}
	return b.String()
}
