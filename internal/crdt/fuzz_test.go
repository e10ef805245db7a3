package crdt

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestGeneratorsCoverRegistry guards the property-test sweep itself: every
// payload type registered in the codec registry must have a random-state
// generator, so a newly added CRDT cannot silently skip the lattice-law
// and round-trip checks.
func TestGeneratorsCoverRegistry(t *testing.T) {
	for _, name := range Names() {
		if _, ok := generators[name]; !ok {
			t.Errorf("registered type %q has no generator in lattice_test.go", name)
		}
	}
	for name := range generators {
		if _, err := New(name); err != nil {
			t.Errorf("generator for %q but type not registered: %v", name, err)
		}
	}
}

// FuzzUnmarshal feeds arbitrary bytes to the codec: decoding must never
// panic, and every frame it accepts must satisfy the semilattice laws and
// survive a deterministic re-encode round trip.
func FuzzUnmarshal(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for _, name := range Names() {
		s := generators[name](r)
		raw, err := Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		if len(raw) > 2 {
			f.Add(raw[:len(raw)/2]) // truncated frame
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Unmarshal(data)
		if err != nil {
			return // malformed input must be rejected, not crash
		}
		// Idempotence on whatever state the bytes decoded to.
		m, err := s.Merge(s)
		if err != nil {
			t.Fatalf("self-merge of decoded state: %v", err)
		}
		if eq, err := Equivalent(m, s); err != nil || !eq {
			t.Fatalf("s ⊔ s ≢ s for decoded state %v (err=%v)", s, err)
		}
		// Deterministic re-encode round trip.
		raw, err := Marshal(s)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		back, err := Unmarshal(raw)
		if err != nil {
			t.Fatalf("re-unmarshal: %v", err)
		}
		if eq, err := Equivalent(s, back); err != nil || !eq {
			t.Fatalf("round trip not equivalent: %v vs %v (err=%v)", s, back, err)
		}
		raw2, err := Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, raw2) {
			t.Fatalf("non-deterministic encoding: %x vs %x", raw, raw2)
		}
	})
}

// FuzzLatticeLaws drives the semilattice laws from fuzz-chosen seeds and
// type index: commutativity, associativity, idempotence, and the
// order/join consistency a ⊑ b ⇔ a ⊔ b ≡ b, for every registered type —
// plus the Merge contract of checkMergeContract: no operand changes, and
// a join with a dominated argument is the receiver's encoding (for
// the counters and ORSet, the receiver itself).
func FuzzLatticeLaws(f *testing.F) {
	f.Add(uint8(0), int64(1), int64(2), int64(3))
	f.Add(uint8(3), int64(42), int64(42), int64(7))
	f.Add(uint8(10), int64(-1), int64(0), int64(1))

	names := Names()
	f.Fuzz(func(t *testing.T, typeIdx uint8, seedA, seedB, seedC int64) {
		name := names[int(typeIdx)%len(names)]
		gen := generators[name]
		a := gen(rand.New(rand.NewSource(seedA)))
		b := gen(rand.New(rand.NewSource(seedB)))
		c := gen(rand.New(rand.NewSource(seedC)))
		// First, while no merge has touched the operands.
		checkMergeContract(t, name, a, b)
		checkMergeContract(t, name, MustMerge(a, b), c)

		aa := MustMerge(a, a)
		if eq, err := Equivalent(aa, a); err != nil || !eq {
			t.Fatalf("%s: idempotence violated: %v (err=%v)", name, a, err)
		}
		ab, ba := MustMerge(a, b), MustMerge(b, a)
		if eq, err := Equivalent(ab, ba); err != nil || !eq {
			t.Fatalf("%s: commutativity violated: %v, %v (err=%v)", name, a, b, err)
		}
		left := MustMerge(MustMerge(a, b), c)
		right := MustMerge(a, MustMerge(b, c))
		if eq, err := Equivalent(left, right); err != nil || !eq {
			t.Fatalf("%s: associativity violated: %v, %v, %v (err=%v)", name, a, b, c, err)
		}
		le, err := a.Compare(b)
		if err != nil {
			t.Fatal(err)
		}
		joinedEq, err := Equivalent(ab, b)
		if err != nil {
			t.Fatal(err)
		}
		if le != joinedEq {
			t.Fatalf("%s: a ⊑ b (%t) inconsistent with a ⊔ b ≡ b (%t): a=%v b=%v", name, le, joinedEq, a, b)
		}
		// The codec must round-trip the join, preserving equivalence.
		raw, err := Marshal(ab)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Unmarshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		if eq, err := Equivalent(ab, back); err != nil || !eq {
			t.Fatalf("%s: join did not round-trip: %v vs %v (err=%v)", name, ab, back, err)
		}
	})
}
