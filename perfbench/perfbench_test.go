package main

import (
	"encoding/json"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"crdtsmr/internal/server"
)

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []fileMetric `json:"end_to_end"`
	PerLayer []fileMetric `json:"per_layer"`
}

type fileMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the program's own
// tables of workloads and metrics in step.
func TestBenchmarkFileMatches(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, fw := range f.Workloads {
		w, err := lookupWorkload(fw.Name)
		if err != nil || w.why != fw.Why {
			t.Errorf("workload %q: file says %q, program %q (%v)", fw.Name, fw.Why, w.why, err)
		}
	}
	check := func(kind string, file [][2]string, prog []metricSpec) {
		if len(file) != len(prog) {
			t.Errorf("%s: file lists %d metrics, program %d", kind, len(file), len(prog))
			return
		}
		for i, m := range prog {
			if file[i] != [2]string{m.name, m.unit} {
				t.Errorf("%s %d: file has %v, program %s (%s)", kind, i, file[i], m.name, m.unit)
			}
		}
	}
	var e2e, layer [][2]string
	for _, m := range f.EndToEnd {
		e2e = append(e2e, [2]string{m.Name, m.Unit})
	}
	for _, m := range f.PerLayer {
		layer = append(layer, [2]string{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
}

// TestTinyRunsEmitEveryMetric runs every workload at a tiny scale, untraced
// and traced, and checks that each named metric is emitted with its unit
// and that every output check passes.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("boots clusters")
	}
	f := readBenchmarkFile(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{
				seed:    7,
				window:  600 * time.Millisecond,
				warmup:  100 * time.Millisecond,
				setups:  1,
				scale:   8,
				workDir: t.TempDir(),
			}
			res, _, err := runUntraced(w, cfg)
			if err != nil {
				t.Fatalf("untraced: %v", err)
			}
			emitted(t, "untraced", res, f.EndToEnd)
			res, _, err = runTraced(w, cfg)
			if err != nil {
				t.Fatalf("traced: %v", err)
			}
			emitted(t, "traced", res, f.PerLayer)
		})
	}
}

func emitted(t *testing.T, run string, res result, want []fileMetric) {
	t.Helper()
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("%s: correct %v, attempted %d, failed %d", run, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, want %d", run, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", run, m.Name, got, m.Unit)
		}
	}
}

// TestStaleReadRejected feeds the real-time check fabricated histories: a
// read that misses an increment acknowledged before it started, and one
// that sees an increment issued only after it returned, must both fail;
// a read concurrent with an increment may see it or not.
func TestStaleReadRejected(t *testing.T) {
	preload := []uint64{5}
	inc := opRec{key: 0, kind: opUpdate, amount: 2, start: 10, end: 20, ok: true}
	read := func(start, end int64, v uint64) opRec {
		return opRec{key: 0, kind: opRead, start: start, end: end, value: v, ok: true}
	}
	cases := []struct {
		name string
		read opRec
		ok   bool
	}{
		{"stale after ack", read(30, 40, 5), false},
		{"fresh after ack", read(30, 40, 7), true},
		{"concurrent, old value", read(15, 25, 5), true},
		{"concurrent, new value", read(15, 25, 7), true},
		{"before issue, new value", read(1, 5, 7), false},
		{"beyond every increment", read(30, 40, 9), false},
	}
	for _, c := range cases {
		err := checkCounterReads([]opRec{inc, c.read}, preload)
		if (err == nil) != c.ok {
			t.Errorf("%s: check returned %v, want ok=%v", c.name, err, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "not linearizable") {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
	}
}

// TestFrameScannerSplitsAnywhere feeds two frames to the scanner one byte
// at a time and all at once; both must report the same frames.
func TestFrameScannerSplitsAnywhere(t *testing.T) {
	frame := func(op byte, id uint64, body int) []byte {
		f := []byte{1, op}
		for id >= 0x80 {
			f = append(f, byte(id)|0x80)
			id >>= 7
		}
		f = append(f, byte(id))
		f = append(f, make([]byte, body)...)
		return append([]byte{byte(len(f))}, f...)
	}
	stream := append(frame(2, 300, 20), frame(0x81, 7, 0)...)
	type got struct {
		op   byte
		id   uint64
		size int
	}
	want := []got{{2, 300, 25}, {0x81, 7, 4}}
	for _, step := range []int{1, len(stream)} {
		var s frameScanner
		var seen []got
		for i := 0; i < len(stream); i += step {
			s.feed(stream[i:min(i+step, len(stream))], int64(i), func(op byte, id uint64, size int, _, _ int64) {
				seen = append(seen, got{op, id, size})
			})
		}
		if len(seen) != len(want) || seen[0] != want[0] || seen[1] != want[1] {
			t.Errorf("step %d: frames %v, want %v", step, seen, want)
		}
	}
}

// TestCloseEndsLateServe closes a harness whose server was closed before
// its Serve began, the order a short set-up can leave n3's server in:
// closing must still end Serve and return.
func TestCloseEndsLateServe(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(nil, server.Options{})
	_ = srv.Close()
	h := &harness{servers: []*server.Server{srv}, lns: []net.Listener{ln}}
	h.serving.Add(1)
	go func() {
		defer h.serving.Done()
		_ = srv.Serve(ln)
	}()
	closed := make(chan struct{})
	go func() {
		h.close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("harness close still waiting for a Serve that began after its server closed")
	}
}
