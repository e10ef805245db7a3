package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"time"

	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/persist"
)

// The micro phases run after the measured window, with the cluster shut
// down, on one goroutine each.

const microBudget = 300 * time.Millisecond // per phase and op kind

// stepPhase drives three core.Replica instances on one goroutine —
// submit, then TakeOutbox → Deliver until every outbox is empty — with
// the workload's payload and op mix, alternating the proposer between n1
// and n2. It times protocol work without the runtime's event loops and
// channel handoffs.
func stepPhase(w workload, seed uint64) (updateUs, queryUs, allocsPerOp float64, err error) {
	s0, err := preloadedState(w)
	if err != nil {
		return 0, 0, 0, err
	}
	opts := core.DefaultOptions()
	opts.Lease = true
	reps := make([]*core.Replica, len(nodeIDs))
	for i, id := range nodeIDs {
		if reps[i], err = core.NewReplica(id, nodeIDs, s0, opts); err != nil {
			return 0, 0, 0, err
		}
	}
	pump := func() {
		for moved := true; moved; {
			moved = false
			for _, r := range reps {
				for _, env := range r.TakeOutbox() {
					reps[nodeIndex(env.To)].Deliver(r.ID(), env.Payload)
					moved = true
				}
			}
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	var upd, qry []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	begin := time.Now()
	ops := 0
	for ; time.Since(begin) < 2*microBudget || len(upd) < 8 || len(qry) < 8; ops++ {
		p := reps[ops%2]
		read := rng.Float64() < w.readFrac
		var done bool
		var opErr error
		t := time.Now()
		if read {
			p.SubmitQuery(func(_ crdt.State, _ core.QueryStats, err error) { done, opErr = true, err })
		} else {
			fu := counterInc(p.ID(), 1)
			if w.orset {
				fu = orsetAdd(string(p.ID()), elem(rng.IntN(w.elems)), uint64(ops+1)<<8)
			}
			if _, err := p.SubmitUpdate(fu, func(_ core.UpdateStats, err error) { done, opErr = true, err }); err != nil {
				return 0, 0, 0, fmt.Errorf("step phase: %w", err)
			}
		}
		pump()
		d := float64(time.Since(t).Nanoseconds()) / 1e3
		if !done || opErr != nil {
			return 0, 0, 0, fmt.Errorf("step phase: op %d did not complete (err %v)", ops, opErr)
		}
		if read {
			qry = append(qry, d)
		} else {
			upd = append(upd, d)
		}
	}
	runtime.ReadMemStats(&ms1)
	return mean(upd), mean(qry), float64(ms1.Mallocs-ms0.Mallocs) / float64(ops), nil
}

// preloadedState is a key's state right after set-up: an empty counter,
// or an or-set holding every preloaded element.
func preloadedState(w workload) (crdt.State, error) {
	if !w.orset {
		return crdt.NewGCounter(), nil
	}
	h := harness{w: w, preload: []uint64{uint64(w.elems)}}
	return h.preloadUpdate(nodeIDs[0], 0)(crdt.NewORSet())
}

// crdtPhase times Merge, MarshalBinary and crdt.Unmarshal over the states
// captured from the workload's own keys: a holds n1's state of every key,
// b n2's. Each op runs in whole passes over the keys until its budget is
// spent, and is reported as the mean per call.
func crdtPhase(a, b []crdt.State) (stateBytes, mergeUs, marshalUs, unmarshalUs float64, err error) {
	enc := make([][]byte, len(a))
	var total int
	for i, s := range a {
		raw, err := s.MarshalBinary()
		if err != nil {
			return 0, 0, 0, 0, err
		}
		total += len(raw)
		if enc[i], err = crdt.Marshal(s); err != nil {
			return 0, 0, 0, 0, err
		}
	}
	timed := func(f func(i int) error) (float64, error) {
		calls := 0
		begin := time.Now()
		for time.Since(begin) < microBudget || calls == 0 {
			for i := range a {
				if err := f(i); err != nil {
					return 0, err
				}
			}
			calls += len(a)
		}
		return float64(time.Since(begin).Nanoseconds()) / 1e3 / float64(calls), nil
	}
	if mergeUs, err = timed(func(i int) error { _, err := a[i].Merge(b[i]); return err }); err != nil {
		return 0, 0, 0, 0, err
	}
	if marshalUs, err = timed(func(i int) error { _, err := a[i].MarshalBinary(); return err }); err != nil {
		return 0, 0, 0, 0, err
	}
	if unmarshalUs, err = timed(func(i int) error { _, err := crdt.Unmarshal(enc[i]); return err }); err != nil {
		return 0, 0, 0, 0, err
	}
	return float64(total) / float64(len(a)), mergeUs, marshalUs, unmarshalUs, nil
}

// persistPhase saves the workload's records — built from the captured
// states by Replica.Snapshot → persist.FromSnapshot — one record per
// batch and 32 per batch, under SyncAlways with the emulated flush
// standing in for fsync, as the cluster's group-commit persister would
// with a data directory. The flush is charged once per batch, so
// batch32 against 32 × batch1 shows what group commit saves; the rest of
// each figure is encoding plus the host's file create, write and rename
// per record. Workloads with fewer than 32 keys repeat records within a
// batch.
func persistPhase(keys []string, states []crdt.State, dir string) (batch1Ms, batch32Ms float64, err error) {
	opts := core.DefaultOptions()
	recs := make([]persist.Record, len(states))
	for i, s := range states {
		r, err := core.NewReplica(nodeIDs[0], nodeIDs, s, opts)
		if err != nil {
			return 0, 0, err
		}
		if recs[i], err = persist.FromSnapshot(keys[i], r.Snapshot()); err != nil {
			return 0, 0, err
		}
	}
	store, err := persist.Open(dir, persist.Options{Sync: persist.SyncAlways, WriteDelay: microFlush})
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	timed := func(size int) (float64, error) {
		batch := make([]persist.Record, size)
		n, next := 0, 0
		begin := time.Now()
		for time.Since(begin) < microBudget || n < 4 {
			for j := range batch {
				batch[j] = recs[next%len(recs)]
				next++
			}
			if err := store.SaveBatch(batch); err != nil {
				return 0, err
			}
			n++
		}
		return float64(time.Since(begin).Nanoseconds()) / 1e6 / float64(n), nil
	}
	if batch1Ms, err = timed(1); err != nil {
		return 0, 0, err
	}
	if batch32Ms, err = timed(32); err != nil {
		return 0, 0, err
	}
	return batch1Ms, batch32Ms, nil
}
