package main

import (
	"fmt"
	"time"

	"crdtsmr/internal/crdt"
)

// workload is one traffic mix against the served store. The mixes
// stress different layers (see layerLinks): the per-request runtime
// path, per-key round conflicts, and CRDT state size.
type workload struct {
	name string
	why  string // one line, mirrored in BENCHMARK.json

	keys     int     // distinct object keys, drawn uniformly
	readFrac float64 // share of queries; the rest are updates
	orset    bool    // or-set keys with preloaded elements; else g-counters
	elems    int     // or-set elements preloaded per key
}

var workloads = []workload{
	{
		name:     "read-mostly",
		why:      "1024 counter keys, 90% reads: the per-request path (client, server, shard queue, lease fast path) dominates; persist is bypassed",
		keys:     1024,
		readFrac: 0.9,
	},
	{
		name:     "hot-keys",
		why:      "4 counter keys, 50% reads, two proposers per key: round conflicts (NACKs, retries, vote learns) dominate; the paper's 1-3 round-trip claim",
		keys:     4,
		readFrac: 0.5,
	},
	{
		name:     "large-state",
		why:      "64 or-set keys of 128 elements, 95% reads: CRDT merge, clone and (un)marshal and state-transfer bytes dominate",
		keys:     64,
		readFrac: 0.95,
		orset:    true,
		elems:    128,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Fixed harness parameters. They are constants, not flags, so every run
// of a workload measures the same program under the same load.
const (
	callers      = 32                    // closed-loop callers, each waiting for its reply
	poolPerAddr  = 1                     // client connections per address; 2 addresses = 2 connections
	shards       = 2                     // event-loop shards per replica, pinned against CRDTSMR_SHARDS
	probeEvery   = 16                    // traced runs send 1 in probeEvery ops straight to a node
	microFlush   = time.Millisecond      // emulated device flush of the persist micro phase
	opTimeout    = 10 * time.Second      // per-operation deadline
	warmupPeriod = 2 * time.Second       // load before the measured window
	setupRounds  = 9                     // set-ups per untraced run; setup_s is their median
	windowSlices = 8                     // end-to-end metrics are medians over this many slices of the window
	runLimit     = 165 * time.Second     // a run still going after this is stuck and ends without a result
	injected     = "none (loopback TCP)" // network delay between replicas
)

// scale shrinks a workload for the benchmark's own tests: fewer keys and
// elements, same mix and wiring.
func (w workload) scale(div int) workload {
	if div <= 1 {
		return w
	}
	w.keys = max(w.keys/div, 2)
	if w.elems > 0 {
		w.elems = max(w.elems/div, 4)
	}
	return w
}

func (w workload) key(i int) string {
	if w.orset {
		return fmt.Sprintf("%s/k%04d", crdt.TypeORSet, i)
	}
	return fmt.Sprintf("k%04d", i)
}

func elem(i int) string { return fmt.Sprintf("e%04d", i) }
