// The seeded scenario rig: every fault, recovery and topology schedule
// runs one client connection streaming sequence-stamped messages to one
// server connection on a manual clock that the schedule owns. The
// committed records BENCH_2, BENCH_3 and BENCH_8 are these runs at seed
// 1996, held byte for byte by TestSeededRecordsReproduce.
package paccel_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"paccel/internal/bits"
	"paccel/internal/core"
	"paccel/internal/layers"
	"paccel/internal/stack"
	"paccel/internal/vclock"
)

// update rewrites the committed records instead of comparing against
// them: go test -run TestSeededRecordsReproduce -update .
var update = flag.Bool("update", false, "rewrite BENCH_2/3/8.json from the seeded runs")

const (
	recordSeed     = 1996
	scenarioRTO    = 20 * time.Millisecond
	scenarioBudget = 4 * time.Minute // virtual; costs nothing but clock steps
	scenarioStep   = 5 * time.Millisecond
)

// healOptions is the stack of every self-healing schedule: a short
// retransmission timeout so lossy schedules converge in bounded time,
// NAKs so single gaps heal in one round trip, and a jittered heartbeat —
// dead-peer detection with automatic recovery needs a liveness source,
// or an idle healed connection would trip ErrPeerSilent again.
var healOptions = core.StackOptions{
	RetransTimeout: scenarioRTO, Naks: true,
	Heartbeat: 100 * time.Millisecond, HeartbeatJitter: 25 * time.Millisecond,
}

// seededStack builds opts with each side's heartbeat jitter seeded by its
// local port, so the beats are deterministic and distinct per side.
func seededStack(opts core.StackOptions) core.StackBuilder {
	build := core.BuildStack(opts)
	return func(spec core.PeerSpec, order bits.ByteOrder) ([]stack.Layer, error) {
		ls, err := build(spec, order)
		if err != nil {
			return nil, err
		}
		// The heartbeat sits just above the identification.
		ls[len(ls)-2].(*layers.Heartbeat).Seed = int64(spec.LocalPort)
		return ls, nil
	}
}

// healConfig is an endpoint of a self-healing schedule: dead-peer
// detection after 500 ms of silence and a redial budget of attempts.
func healConfig(tr core.Transport, build core.StackBuilder, seed int64, attempts int) core.Config {
	return core.Config{
		Transport: tr, Build: build,
		PeerTimeout: 500 * time.Millisecond,
		Recovery: core.RecoveryConfig{
			MaxAttempts: attempts,
			BaseDelay:   100 * time.Millisecond,
			MaxDelay:    time.Second,
			Seed:        seed,
		},
	}
}

// chaosSeed is the seed of the -race chaos entries: PACCEL_CHAOS_SEED,
// so CI runs are reproducible, or 1996.
func chaosSeed(t *testing.T) int64 {
	s := os.Getenv("PACCEL_CHAOS_SEED")
	if s == "" {
		return recordSeed
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("PACCEL_CHAOS_SEED: %v", err)
	}
	return v
}

// stream is the rig: client connection c sends 32-byte messages stamped
// 0, 1, 2, … to server connection s, which demands exactly that
// sequence.
type stream struct {
	t    *testing.T
	name string
	clk  *vclock.Manual
	c, s *core.Conn

	expectFail bool   // the schedule ends in the client's typed failure
	onStep     func() // runs before every clock step (nil: nothing)

	sent    int
	next    uint32 // the sequence number s expects next: messages delivered
	ordered bool   // no delivery was out of sequence
	refused uint64 // sends refused with a typed ErrBackpressure
	cause   error  // the client's failure, from OnConnFail
	payload []byte
}

// paperClock is a schedule's manual clock, started at the paper's date.
func paperClock() *vclock.Manual {
	return vclock.NewManual(time.Date(1996, 8, 28, 0, 0, 0, 0, time.UTC))
}

// newStream opens the client endpoint on cfgC and the server endpoint on
// cfgS, both on clk, and dials the mirrored pair: the client toward
// sAddr, the server toward cAddr. Cookies are pinned by seed, not drawn,
// and the identities are fixed, so a run's wire bytes — and its pinned
// pcap traces — are a function of the seed alone.
func newStream(t *testing.T, name string, clk *vclock.Manual, seed int64, cfgC, cfgS core.Config, sAddr, cAddr string) *stream {
	t.Helper()
	r := &stream{
		t: t, name: name, clk: clk, ordered: true, payload: make([]byte, 32),
	}
	cfgC.Clock, cfgS.Clock = clk, clk
	cfgC.OnConnFail = func(_ *core.Conn, err error) { r.cause = err }
	r.c = dial(t, endpoint(t, cfgC), core.PeerSpec{
		Addr: sAddr, LocalID: []byte("topo-c"), RemoteID: []byte("topo-s"),
		LocalPort: 1, RemotePort: 2, Epoch: 1, OutCookie: uint64(seed)<<1 | 1,
	})
	r.s = dial(t, endpoint(t, cfgS), core.PeerSpec{
		Addr: cAddr, LocalID: []byte("topo-s"), RemoteID: []byte("topo-c"),
		LocalPort: 2, RemotePort: 1, Epoch: 1, OutCookie: uint64(seed)<<1 | 2,
	})
	r.s.OnDeliver(func(p []byte) {
		if len(p) < 4 || binary.BigEndian.Uint32(p) != r.next {
			r.ordered = false
			return
		}
		r.next++
	})
	return r
}

// send offers messages up to limit. A typed refusal — backpressure, or
// a connection that failed — ends the offer without failing the test:
// the schedule offers again on its next step, which is the point of the
// typed errors.
func (r *stream) send(limit int) {
	r.t.Helper()
	for r.sent < limit {
		binary.BigEndian.PutUint32(r.payload, uint32(r.sent))
		err := r.c.Send(r.payload)
		if errors.Is(err, core.ErrBackpressure) {
			r.refused++
			return
		}
		if errors.Is(err, core.ErrConnFailed) {
			return
		}
		if err != nil {
			r.t.Fatalf("%s: send %d: %v", r.name, r.sent, err)
		}
		r.sent++
	}
}

// drive steps the clock 5 ms at a time for d. Before every step it runs
// step, which ends the drive by returning true (nil: run for all of d).
// A failed client ends the drive when the schedule expects its failure;
// otherwise a failed connection on either side fails the test.
func (r *stream) drive(d time.Duration, step func() bool) {
	r.t.Helper()
	deadline := r.clk.Now().Add(d)
	for r.clk.Now().Before(deadline) {
		if r.c.State() == core.StateFailed {
			if r.expectFail {
				return
			}
			r.t.Fatalf("%s: client failed: %v", r.name, r.c.Err())
		}
		if !r.expectFail && r.s.State() == core.StateFailed {
			r.t.Fatalf("%s: server failed: %v", r.name, r.s.Err())
		}
		if step != nil && step() {
			return
		}
		if r.onStep != nil {
			r.onStep()
		}
		r.clk.Advance(scenarioStep)
	}
}

// finish offers the rest of the n messages and drives until every one is
// delivered or the budget runs out.
func (r *stream) finish(n int) {
	r.t.Helper()
	r.drive(scenarioBudget, func() bool {
		if int(r.next) == n {
			return true
		}
		r.send(n)
		return false
	})
	if int(r.next) != n {
		r.t.Fatalf("%s: delivered %d of %d within the budget", r.name, r.next, n)
	}
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// window returns the connection's sliding window.
func window(c *core.Conn) *layers.Window {
	for _, l := range c.Layers() {
		if w, ok := l.(*layers.Window); ok {
			return w
		}
	}
	return nil
}

// schedule is one named seeded scenario, producing one record row P from
// a run of n messages.
type schedule[P any] struct {
	name string
	run  func(t *testing.T, name string, seed int64, n int) P
}

// record is a BENCH_N.json record: the seed, whether the runs were the
// quick ones, and one row per schedule.
type record[P any] struct {
	Seed   int64 `json:"seed"`
	Quick  bool  `json:"quick"`
	Points []P   `json:"points"`
}

// runSchedules runs every schedule at seed, with 120 messages each when
// quick and 400 otherwise.
func runSchedules[P any](t *testing.T, seed int64, quick bool, schedules []schedule[P]) record[P] {
	t.Helper()
	n := 400
	if quick {
		n = 120
	}
	rec := record[P]{Seed: seed, Quick: quick}
	for _, sc := range schedules {
		rec.Points = append(rec.Points, sc.run(t, sc.name, seed, n))
	}
	return rec
}

// jsonRecord renders a record as its committed file: two-space indent,
// trailing newline.
func jsonRecord(t *testing.T, rec any) string {
	t.Helper()
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out) + "\n"
}

// families is every schedule family with the record it reproduces.
var families = []struct {
	name, file string
	run        func(t *testing.T, seed int64, quick bool) any
}{
	{"faults", "BENCH_2.json", func(t *testing.T, seed int64, quick bool) any {
		return runSchedules(t, seed, quick, faultSchedules)
	}},
	{"recovery", "BENCH_3.json", func(t *testing.T, seed int64, quick bool) any {
		return runSchedules(t, seed, quick, recoverySchedules)
	}},
	{"topo", "BENCH_8.json", func(t *testing.T, seed int64, quick bool) any {
		return runSchedules(t, seed, quick, topoSchedules)
	}},
}

// TestDeterministicUnderSeed runs each family twice at one seed: every
// row, pcap traces included, must come out the same.
func TestDeterministicUnderSeed(t *testing.T) {
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			a, b := f.run(t, 7, true), f.run(t, 7, true)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed diverged:\n%s\nvs\n%s", jsonRecord(t, a), jsonRecord(t, b))
			}
		})
	}
}

// TestSeededRecordsReproduce pins the seeded schedules to their committed
// records: faults, recovery and topo at seed 1996 must produce BENCH_2,
// BENCH_3 and BENCH_8 byte for byte, and each topo schedule's pcap must
// hash to the pinned digest. A diff means the engine's ack, RTO or
// packing schedule moved — intended or not, the records then need
// regenerating (-update) and explaining; a pcap mismatch prints the new
// digest to pin.
func TestSeededRecordsReproduce(t *testing.T) {
	pcapSHA256 := map[string]string{
		"bufferbloat":    "3d720832eb1160093a9af6669c3f06b2de577038925cf5a8b58e1b5b1c26f7b8",
		"nat-rebind":     "28743b2f8eb329d9e485ef3ce1c6e35e3e6aa09d1eb0332233b6002031489623",
		"partition-heal": "9ec4e4151534083de53ce595ae362e40fc1651090833c210c05fd8b925d9226e",
	}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			rec := f.run(t, recordSeed, false)
			got := jsonRecord(t, rec)
			if *update {
				if err := os.WriteFile(f.file, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			} else if want, err := os.ReadFile(f.file); err != nil {
				t.Fatal(err)
			} else if got != string(want) {
				t.Fatalf("%s no longer reproduces:\n%s", f.file, got)
			}
			traced, ok := rec.(record[TopoPoint])
			if !ok {
				return
			}
			if len(traced.Points) != len(pcapSHA256) {
				t.Fatalf("%d schedules traced, %d pinned", len(traced.Points), len(pcapSHA256))
			}
			for _, p := range traced.Points {
				sum := sha256.Sum256(p.trace)
				if got := hex.EncodeToString(sum[:]); got != pcapSHA256[p.Scenario] {
					t.Errorf("topo_%s.pcap: sha256 %s, pinned %s", p.Scenario, got, pcapSHA256[p.Scenario])
				}
			}
		})
	}
}
