package core

import (
	"bytes"
	"fmt"
	"testing"

	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
)

// --- the encoding memo and the skip-unmarshal path of Deliver ---

// orSetOf returns an or-set of n elements e000, e001, ..., one tag each.
func orSetOf(n int) *crdt.ORSet {
	s := crdt.NewORSet()
	for i := 0; i < n; i++ {
		s = s.Add(fmt.Sprintf("e%03d", i), "n1", uint64(i+1))
	}
	return s
}

// copyOf returns a distinct value equal to s, as a peer would decode it.
func copyOf(tb testing.TB, s crdt.State) crdt.State {
	tb.Helper()
	raw, err := crdt.Marshal(s)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := crdt.Unmarshal(raw)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

func newMemoReplica(t *testing.T, s0 crdt.State) *Replica {
	t.Helper()
	rep, err := NewReplica("n1", members("n1", "n2", "n3"), s0, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func mustEncode(t *testing.T, m *message, memo *encMemo) []byte {
	t.Helper()
	raw, err := m.encode(memo)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestEncMemoCachesByIdentity(t *testing.T) {
	var memo encMemo
	a := crdt.NewGCounter().Inc("r1", 3)
	r1, err := memo.encode(a)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := memo.encode(a)
	if err != nil {
		t.Fatal(err)
	}
	if &r1[0] != &r2[0] {
		t.Fatal("memo re-encoded the state it encoded last")
	}
	d1, err := memo.digestOf(a)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := crdt.DigestOf(a); d1 != want {
		t.Fatal("memo digest disagrees with crdt.DigestOf")
	}
	b := a.Inc("r1", 1)
	d2, err := memo.digestOf(b)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := crdt.DigestOf(b); d2 != want || d2 == d1 {
		t.Fatal("memo digest of a new state is stale or wrong")
	}
}

// TestMemoFramesMatchMarshal pins that the memo changes no wire byte: a
// frame encoded on a memo hit equals the frame encoded on a miss and the
// frame encoded through crdt.Marshal alone.
func TestMemoFramesMatchMarshal(t *testing.T) {
	states := []crdt.State{crdt.NewGCounter().Inc("n1", 7), orSetOf(16), crdt.NewPNCounter().Dec("n2", 2)}
	for _, s := range states {
		for _, typ := range []msgType{msgMerge, msgPrepare, msgAck, msgVote, msgNack, msgReconfig} {
			m := &message{Type: typ, Req: 9, Attempt: 2, Epoch: 1, Round: Round{Number: 4, ID: RoundID{Proposer: "n1", Seq: 3}}, State: s}
			var memo encMemo
			miss := mustEncode(t, m, &memo)
			hit := mustEncode(t, m, &memo)
			plain := mustEncode(t, m, nil)
			if !bytes.Equal(miss, plain) || !bytes.Equal(hit, plain) {
				t.Fatalf("%v of %s: memo frames differ from the crdt.Marshal frame", typ, s.TypeName())
			}
		}
	}

	// The same holds for what a replica broadcasts: a leased read's VOTEs
	// to both peers are byte-identical to a fresh encode of the message.
	nw := newNetWith(t, 3, DefaultOptions(), func() crdt.State { return orSetOf(32) })
	n1 := nw.reps["n1"]
	installLeaseAt(t, nw, n1)
	n1.SubmitQuery(nil)
	votes := n1.TakeOutbox()
	if len(votes) != 2 {
		t.Fatalf("leased read sent %d messages, want 2 VOTEs", len(votes))
	}
	m, err := decodeMessage(votes[0].Payload, nil, nil)
	if err != nil || m.Type != msgVote {
		t.Fatalf("leased read sent %v (err %v), want VOTE", m, err)
	}
	plain := mustEncode(t, m, nil)
	for _, e := range votes {
		if !bytes.Equal(e.Payload, plain) {
			t.Fatalf("VOTE to %s differs from a crdt.Marshal encode", e.To)
		}
	}
}

// TestFullFrameOfLocalPayloadResolvesToIt pins the skip-unmarshal path: a
// full-state frame byte-equal to the local payload's encoding resolves to
// the local payload itself, and the merge that follows keeps it — while
// still bumping the version and clobbering the round as any merge does.
func TestFullFrameOfLocalPayloadResolvesToIt(t *testing.T) {
	rep := newMemoReplica(t, orSetOf(8))
	local := rep.LocalState()
	round := Round{Number: 5, ID: RoundID{Proposer: "n2", Seq: 1}}

	vote := mustEncode(t, &message{Type: msgVote, Req: 1, Round: round, State: copyOf(t, local)}, nil)
	m, err := decodeMessage(vote, &rep.enc, rep.acc.state)
	if err != nil {
		t.Fatal(err)
	}
	if m.State != local {
		t.Fatal("VOTE carrying the local payload's bytes did not resolve to the local payload")
	}

	// MERGE payloads are compared with the memo only, which now holds
	// the local payload's encoding.
	merge := mustEncode(t, &message{Type: msgMerge, Req: 2, State: copyOf(t, local)}, nil)
	if m, err = decodeMessage(merge, &rep.enc, rep.acc.state); err != nil || m.State != local {
		t.Fatalf("MERGE of the memoized bytes decoded to a copy (err %v)", err)
	}

	rep.acc.round = round
	version := rep.StateVersion()
	rep.Deliver("n2", merge)
	if rep.LocalState() != local {
		t.Fatal("no-op MERGE replaced the local payload")
	}
	if rep.StateVersion() != version+1 {
		t.Fatalf("no-op MERGE moved the version %d → %d, want +1", version, rep.StateVersion())
	}
	if rep.acc.round.ID != writeID {
		t.Fatalf("no-op MERGE left round %v, want the write marker", rep.acc.round)
	}
	if c := rep.Counters(); c.MalformedMsgs != 0 {
		t.Fatalf("MalformedMsgs = %d, want 0", c.MalformedMsgs)
	}
	out := rep.TakeOutbox()
	if len(out) != 1 {
		t.Fatalf("MERGE answered with %d messages, want one MERGED", len(out))
	}
	if r, err := decodeMessage(out[0].Payload, nil, nil); err != nil || r.Type != msgMerged {
		t.Fatalf("MERGE answered with %v (err %v), want MERGED", r, err)
	}
}

// TestFrameOneByteOffDecodes pins that only exact bytes resolve: a frame
// one byte away from the local encoding decodes to its own state and
// merges normally.
func TestFrameOneByteOffDecodes(t *testing.T) {
	rep := newMemoReplica(t, orSetOf(8))
	local := rep.LocalState()
	raw, err := rep.Encode(local)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.LastIndex(raw, []byte("e007"))
	if i < 0 {
		t.Fatal("encoding holds no e007")
	}
	off := append([]byte(nil), raw...)
	off[i+3] = '8' // e007 → e008: still a well-formed or-set
	other, err := crdt.Unmarshal(off)
	if err != nil {
		t.Fatal(err)
	}

	frame := mustEncode(t, &message{Type: msgMerge, Req: 1, State: other}, nil)
	m, err := decodeMessage(frame, &rep.enc, rep.acc.state)
	if err != nil {
		t.Fatal(err)
	}
	if m.State == local || !m.State.(*crdt.ORSet).Contains("e008") {
		t.Fatalf("one-byte-off frame resolved to %v, want its own state", m.State)
	}
	rep.Deliver("n2", frame)
	got := rep.LocalState().(*crdt.ORSet)
	if got == local || !got.Contains("e007") || !got.Contains("e008") {
		t.Fatalf("merge of the one-byte-off frame gave %v", got)
	}
}

// TestMalformedFrameStillCounted pins that a payload that does not decode
// is dropped and counted, whether or not it is the length of the local
// encoding.
func TestMalformedFrameStillCounted(t *testing.T) {
	rep := newMemoReplica(t, orSetOf(8))
	local := rep.LocalState()
	raw, err := rep.Encode(local)
	if err != nil {
		t.Fatal(err)
	}
	sameLen := append([]byte(nil), raw...)
	sameLen[0]++ // type-name length: the name and payload no longer parse
	truncated := raw[:len(raw)-1]
	for i, bad := range [][]byte{sameLen, truncated} {
		// A memo holding the bad bytes puts them on the wire verbatim.
		frame := mustEncode(t, &message{Type: msgVote, Req: uint64(i + 1), Round: rep.acc.round, State: local}, &encMemo{state: local, raw: bad})
		rep.Deliver("n2", frame)
		if c := rep.Counters(); c.MalformedMsgs != uint64(i+1) {
			t.Fatalf("frame %d: MalformedMsgs = %d, want %d", i, c.MalformedMsgs, i+1)
		}
		if rep.LocalState() != local {
			t.Fatalf("frame %d: malformed frame changed the payload", i)
		}
	}
	if out := rep.TakeOutbox(); len(out) != 0 {
		t.Fatalf("malformed frames were answered with %d messages", len(out))
	}
}

// leasedReadRig is three goroutine-free full-transfer replicas that share
// one converged payload, with n1 holding the round lease.
type leasedReadRig struct {
	reps  map[transport.NodeID]*Replica
	order []*Replica
	done  QueryDone
	err   error
}

// newLeasedReadRig shares a 128-element or-set.
func newLeasedReadRig(tb testing.TB) *leasedReadRig { return newRig(tb, orSetOf(128)) }

func newRig(tb testing.TB, s0 crdt.State) *leasedReadRig {
	tb.Helper()
	ids := members("n1", "n2", "n3")
	rig := &leasedReadRig{reps: make(map[transport.NodeID]*Replica, len(ids))}
	rig.done = func(_ crdt.State, _ QueryStats, err error) {
		if err != nil {
			rig.err = err
		}
	}
	for _, id := range ids {
		rep, err := NewReplica(id, ids, copyOf(tb, s0), DefaultOptions())
		if err != nil {
			tb.Fatal(err)
		}
		rig.reps[id] = rep
		rig.order = append(rig.order, rep)
	}
	rig.read() // a full quorum read installs the lease
	if rig.err != nil || !rig.reps["n1"].Leased() {
		tb.Fatalf("no lease after a quorum read (err %v)", rig.err)
	}
	return rig
}

// read runs one query at n1 and delivers every message until quiet.
func (rig *leasedReadRig) read() {
	rig.reps["n1"].SubmitQuery(rig.done)
	rig.pump()
}

// update runs one g-counter increment at n1 and delivers its MERGEs and
// MERGEDs.
func (rig *leasedReadRig) update() {
	n1 := rig.reps["n1"]
	if _, err := n1.SubmitUpdate(incAt(n1), func(_ UpdateStats, err error) {
		if err != nil {
			rig.err = err
		}
	}); err != nil {
		rig.err = err
	}
	rig.pump()
}

func (rig *leasedReadRig) pump() {
	for moved := true; moved; {
		moved = false
		for _, rep := range rig.order {
			for _, e := range rep.TakeOutbox() {
				rig.reps[e.To].Deliver(rep.ID(), e.Payload)
				moved = true
			}
		}
	}
}

// TestLeasedReadAllocs pins the cost of a converged leased read of a
// 128-element or-set: no state is cloned, marshaled or unmarshaled, so
// the read allocates only protocol bookkeeping and frame buffers. A
// clone, decode or encode of the set costs hundreds of allocations,
// so the bound of 64 catches any of them returning.
func TestLeasedReadAllocs(t *testing.T) {
	rig := newLeasedReadRig(t)
	before := rig.reps["n1"].Counters()
	const bound = 64
	if got := testing.AllocsPerRun(100, rig.read); got > bound {
		t.Fatalf("converged leased read: %.0f allocs/op, want ≤ %d", got, bound)
	}
	if rig.err != nil {
		t.Fatal(rig.err)
	}
	after := rig.reps["n1"].Counters()
	if hits := after.LeaseHits - before.LeaseHits; hits != 101 || after.LeaseFallbacks != before.LeaseFallbacks {
		t.Fatalf("lease hits %d fallbacks %d over 101 reads, want 101/0", hits, after.LeaseFallbacks-before.LeaseFallbacks)
	}
}

func BenchmarkLeasedRead(b *testing.B) {
	rig := newLeasedReadRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.read()
	}
	if rig.err != nil {
		b.Fatal(rig.err)
	}
}

// TestUpdateAllocs pins the allocations of a full-transfer update with
// the lease held — the path the canonical benchmark runs: SubmitUpdate,
// two MERGEs, their merges and two MERGEDs, for a 3-slot g-counter. Full
// transfer announces no digest and keeps no per-peer state, so the bound
// is the exact count and any allocation added to the path fails it.
func TestUpdateAllocs(t *testing.T) {
	rig := newRig(t, crdt.NewGCounter().Inc("n1", 1).Inc("n2", 1).Inc("n3", 1))
	before := rig.reps["n1"].Counters()
	const bound = 50
	if got := testing.AllocsPerRun(100, rig.update); got > bound {
		t.Fatalf("full-transfer update: %.0f allocs/op, want ≤ %d", got, bound)
	}
	if rig.err != nil {
		t.Fatal(rig.err)
	}
	if n := rig.reps["n1"].Counters().Updates - before.Updates; n != 101 {
		t.Fatalf("%d updates completed, want 101", n)
	}
}

func BenchmarkUpdate(b *testing.B) {
	rig := newRig(b, crdt.NewGCounter())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.update()
	}
	if rig.err != nil {
		b.Fatal(rig.err)
	}
}
