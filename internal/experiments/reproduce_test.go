package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestSeededRecordsReproduce pins the seeded virtual-time experiments to
// their committed records: `pabench -exp faults`, `-exp recovery -seed
// 1996` and `-exp topo -seed 1996` must write BENCH_2, BENCH_3 and BENCH_8
// byte for byte, and each topo schedule's pcap must hash to the pinned
// digest. A diff means the engine's ack, RTO or packing schedule moved —
// intended or not, the records then need regenerating and explaining.
func TestSeededRecordsReproduce(t *testing.T) {
	record := func(t *testing.T, res any, file string) {
		t.Helper()
		got, err := JSON(res)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", file))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Fatalf("%s no longer reproduces:\n%s", file, got)
		}
	}
	t.Run("faults", func(t *testing.T) {
		res, err := Faults(false, 0)
		if err != nil {
			t.Fatal(err)
		}
		record(t, res, "BENCH_2.json")
	})
	t.Run("recovery", func(t *testing.T) {
		res, err := Recovery(false, 1996)
		if err != nil {
			t.Fatal(err)
		}
		record(t, res, "BENCH_3.json")
	})
	t.Run("topo", func(t *testing.T) {
		pcapSHA256 := map[string]string{
			"bufferbloat":    "3d720832eb1160093a9af6669c3f06b2de577038925cf5a8b58e1b5b1c26f7b8",
			"nat-rebind":     "28743b2f8eb329d9e485ef3ce1c6e35e3e6aa09d1eb0332233b6002031489623",
			"partition-heal": "9ec4e4151534083de53ce595ae362e40fc1651090833c210c05fd8b925d9226e",
		}
		traces := map[string]*bytes.Buffer{}
		res, err := Topo(false, 1996, func(sc string) io.Writer {
			traces[sc] = &bytes.Buffer{}
			return traces[sc]
		})
		if err != nil {
			t.Fatal(err)
		}
		record(t, res, "BENCH_8.json")
		if len(traces) != len(pcapSHA256) {
			t.Fatalf("%d schedules traced, %d pinned", len(traces), len(pcapSHA256))
		}
		for sc, want := range pcapSHA256 {
			tr, ok := traces[sc]
			if !ok {
				t.Fatalf("schedule %s not traced", sc)
			}
			sum := sha256.Sum256(tr.Bytes())
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("topo_%s.pcap: sha256 %s, pinned %s", sc, got, want)
			}
		}
	})
}
