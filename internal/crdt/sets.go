package crdt

import (
	"fmt"
	"sort"
	"strconv"
)

// GSet is a grow-only set of strings: the lattice is (2^E, ⊆, ∪). Elements
// can only be added; removal requires TwoPSet or ORSet.
type GSet struct {
	elems map[string]struct{}
}

var (
	_ State       = (*GSet)(nil)
	_ Unmarshaler = (*GSet)(nil)
)

// NewGSet returns the empty (bottom) set.
func NewGSet() *GSet { return &GSet{elems: map[string]struct{}{}} }

// Add returns a copy containing e.
func (s *GSet) Add(e string) *GSet {
	out := &GSet{elems: cloneStrSet(s.elems)}
	out.elems[e] = struct{}{}
	return out
}

// Contains reports membership of e.
func (s *GSet) Contains(e string) bool {
	_, ok := s.elems[e]
	return ok
}

// Len returns the number of elements.
func (s *GSet) Len() int { return len(s.elems) }

// Elements returns the members in sorted order.
func (s *GSet) Elements() []string {
	out := make([]string, 0, len(s.elems))
	for e := range s.elems {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// Merge is set union.
func (s *GSet) Merge(other State) (State, error) {
	o, ok := other.(*GSet)
	if !ok {
		return nil, typeMismatch(s, other)
	}
	out := &GSet{elems: cloneStrSet(s.elems)}
	for e := range o.elems {
		out.elems[e] = struct{}{}
	}
	return out, nil
}

// Compare is set inclusion.
func (s *GSet) Compare(other State) (bool, error) {
	o, ok := other.(*GSet)
	if !ok {
		return false, typeMismatch(s, other)
	}
	for e := range s.elems {
		if _, ok := o.elems[e]; !ok {
			return false, nil
		}
	}
	return true, nil
}

// TypeName implements State.
func (s *GSet) TypeName() string { return TypeGSet }

// MarshalBinary implements State.
func (s *GSet) MarshalBinary() ([]byte, error) {
	e := newEncBuf(16 * (len(s.elems) + 1))
	e.strSet(s.elems)
	return e.bytes(), nil
}

// UnmarshalBinary implements Unmarshaler.
func (s *GSet) UnmarshalBinary(data []byte) error {
	d := newDecBuf(data)
	m, err := d.strSet()
	if err != nil {
		return err
	}
	if err := d.done(); err != nil {
		return err
	}
	s.elems = m
	return nil
}

// String renders the set for logs and test failures.
func (s *GSet) String() string { return fmt.Sprintf("GSet%v", s.Elements()) }

// TwoPSet is a two-phase set: the product of an add G-Set and a remove
// G-Set (tombstones). Once removed, an element can never be re-added —
// remove wins permanently. Tombstones accumulate; the paper's related-work
// section points to garbage-collection literature for this inflation.
type TwoPSet struct {
	added   map[string]struct{}
	removed map[string]struct{}
}

var (
	_ State       = (*TwoPSet)(nil)
	_ Unmarshaler = (*TwoPSet)(nil)
)

// NewTwoPSet returns the empty (bottom) set.
func NewTwoPSet() *TwoPSet {
	return &TwoPSet{added: map[string]struct{}{}, removed: map[string]struct{}{}}
}

// Add returns a copy with e added. Adding a removed element has no visible
// effect (remove wins).
func (s *TwoPSet) Add(e string) *TwoPSet {
	out := s.clone()
	out.added[e] = struct{}{}
	return out
}

// Remove returns a copy with e tombstoned.
func (s *TwoPSet) Remove(e string) *TwoPSet {
	out := s.clone()
	out.added[e] = struct{}{} // removal implies observation
	out.removed[e] = struct{}{}
	return out
}

// Contains reports whether e was added and never removed.
func (s *TwoPSet) Contains(e string) bool {
	if _, rm := s.removed[e]; rm {
		return false
	}
	_, ok := s.added[e]
	return ok
}

// Elements returns the live members in sorted order.
func (s *TwoPSet) Elements() []string {
	out := make([]string, 0, len(s.added))
	for e := range s.added {
		if _, rm := s.removed[e]; !rm {
			out = append(out, e)
		}
	}
	sort.Strings(out)
	return out
}

func (s *TwoPSet) clone() *TwoPSet {
	return &TwoPSet{added: cloneStrSet(s.added), removed: cloneStrSet(s.removed)}
}

// Merge unions both component sets.
func (s *TwoPSet) Merge(other State) (State, error) {
	o, ok := other.(*TwoPSet)
	if !ok {
		return nil, typeMismatch(s, other)
	}
	out := s.clone()
	for e := range o.added {
		out.added[e] = struct{}{}
	}
	for e := range o.removed {
		out.removed[e] = struct{}{}
	}
	return out, nil
}

// Compare is component-wise inclusion.
func (s *TwoPSet) Compare(other State) (bool, error) {
	o, ok := other.(*TwoPSet)
	if !ok {
		return false, typeMismatch(s, other)
	}
	for e := range s.added {
		if _, ok := o.added[e]; !ok {
			return false, nil
		}
	}
	for e := range s.removed {
		if _, ok := o.removed[e]; !ok {
			return false, nil
		}
	}
	return true, nil
}

// TypeName implements State.
func (s *TwoPSet) TypeName() string { return TypeTwoPSet }

// MarshalBinary implements State.
func (s *TwoPSet) MarshalBinary() ([]byte, error) {
	e := newEncBuf(16 * (len(s.added) + len(s.removed) + 1))
	e.strSet(s.added)
	e.strSet(s.removed)
	return e.bytes(), nil
}

// UnmarshalBinary implements Unmarshaler.
func (s *TwoPSet) UnmarshalBinary(data []byte) error {
	d := newDecBuf(data)
	added, err := d.strSet()
	if err != nil {
		return err
	}
	removed, err := d.strSet()
	if err != nil {
		return err
	}
	if err := d.done(); err != nil {
		return err
	}
	s.added, s.removed = added, removed
	return nil
}

// ORSet is an observed-remove (add-wins) set. Every add attaches a unique
// tag; a remove tombstones exactly the tags observed at the removing
// replica, so adds concurrent with a remove survive. The lattice is the
// product of two grow-only sets: (element,tag) pairs and removed tags.
type ORSet struct {
	adds  map[string]map[string]struct{} // element -> set of tags ever added
	tombs map[string]struct{}            // removed tags
}

var (
	_ State       = (*ORSet)(nil)
	_ Unmarshaler = (*ORSet)(nil)
)

// NewORSet returns the empty (bottom) set.
func NewORSet() *ORSet {
	return &ORSet{adds: map[string]map[string]struct{}{}, tombs: map[string]struct{}{}}
}

// Add returns a copy with e added under a fresh tag derived from the actor
// and its per-actor sequence number seq. (actor, seq) pairs must be unique
// across all adds, which each replica guarantees locally by counting.
func (s *ORSet) Add(e, actor string, seq uint64) *ORSet {
	out := s.clone()
	tag := actor + "#" + strconv.FormatUint(seq, 10)
	tags, ok := out.adds[e]
	if !ok {
		tags = map[string]struct{}{}
		out.adds[e] = tags
	}
	tags[tag] = struct{}{}
	return out
}

// Remove returns a copy with every currently observed tag of e tombstoned.
// Adds of e that this state has not observed are unaffected (add wins).
func (s *ORSet) Remove(e string) *ORSet {
	out := s.clone()
	for tag := range out.adds[e] {
		out.tombs[tag] = struct{}{}
	}
	return out
}

// Contains reports whether e has at least one live (non-tombstoned) tag.
func (s *ORSet) Contains(e string) bool {
	for tag := range s.adds[e] {
		if _, dead := s.tombs[tag]; !dead {
			return true
		}
	}
	return false
}

// Elements returns the live members in sorted order.
func (s *ORSet) Elements() []string {
	out := make([]string, 0, len(s.adds))
	for e := range s.adds {
		if s.Contains(e) {
			out = append(out, e)
		}
	}
	sort.Strings(out)
	return out
}

func (s *ORSet) clone() *ORSet {
	adds := make(map[string]map[string]struct{}, len(s.adds))
	for e, tags := range s.adds {
		adds[e] = cloneStrSet(tags)
	}
	return &ORSet{adds: adds, tombs: cloneStrSet(s.tombs)}
}

// Merge unions the (element, tag) pairs and the tombstones. The receiver
// is copied only once other is found to hold a pair or tombstone it lacks;
// when other ⊑ s the receiver itself is the join and is returned as is.
func (s *ORSet) Merge(other State) (State, error) {
	o, ok := other.(*ORSet)
	if !ok {
		return nil, typeMismatch(s, other)
	}
	if s == o {
		return s, nil
	}
	var out *ORSet
	for e, tags := range o.adds {
		have := s.adds[e]
		for tag := range tags {
			if _, ok := have[tag]; ok {
				continue
			}
			if out == nil {
				out = s.clone()
			}
			dst, ok := out.adds[e]
			if !ok {
				dst = map[string]struct{}{}
				out.adds[e] = dst
			}
			dst[tag] = struct{}{}
		}
	}
	for tag := range o.tombs {
		if _, ok := s.tombs[tag]; ok {
			continue
		}
		if out == nil {
			out = s.clone()
		}
		out.tombs[tag] = struct{}{}
	}
	if out == nil {
		return s, nil
	}
	return out, nil
}

// Compare is component-wise inclusion of tags and tombstones.
func (s *ORSet) Compare(other State) (bool, error) {
	o, ok := other.(*ORSet)
	if !ok {
		return false, typeMismatch(s, other)
	}
	if s == o {
		return true, nil
	}
	for e, tags := range s.adds {
		otags := o.adds[e]
		for tag := range tags {
			if _, ok := otags[tag]; !ok {
				return false, nil
			}
		}
	}
	for tag := range s.tombs {
		if _, ok := o.tombs[tag]; !ok {
			return false, nil
		}
	}
	return true, nil
}

// TypeName implements State.
func (s *ORSet) TypeName() string { return TypeORSet }

// MarshalBinary implements State.
func (s *ORSet) MarshalBinary() ([]byte, error) {
	e := newEncBuf(32 * (len(s.adds) + len(s.tombs) + 1))
	elems := make([]string, 0, len(s.adds))
	for el := range s.adds {
		elems = append(elems, el)
	}
	sort.Strings(elems)
	e.uvarint(uint64(len(elems)))
	for _, el := range elems {
		e.str(el)
		e.strSet(s.adds[el])
	}
	e.strSet(s.tombs)
	return e.bytes(), nil
}

// UnmarshalBinary implements Unmarshaler.
func (s *ORSet) UnmarshalBinary(data []byte) error {
	d := newDecBuf(data)
	n, err := d.uvarint()
	if err != nil {
		return err
	}
	adds := make(map[string]map[string]struct{}, n)
	for i := uint64(0); i < n; i++ {
		el, err := d.str()
		if err != nil {
			return err
		}
		tags, err := d.strSet()
		if err != nil {
			return err
		}
		adds[el] = tags
	}
	tombs, err := d.strSet()
	if err != nil {
		return err
	}
	if err := d.done(); err != nil {
		return err
	}
	s.adds, s.tombs = adds, tombs
	return nil
}

// String renders the set for logs and test failures.
func (s *ORSet) String() string { return fmt.Sprintf("ORSet%v", s.Elements()) }

var _ DeltaState = (*ORSet)(nil)

// Delta implements DeltaState: the (element, tag) pairs and tombstones the
// baseline is missing. A converged workload's add or remove produces a
// delta of one tag, independent of how large the set has grown.
func (s *ORSet) Delta(base State) (State, error) {
	b, ok := base.(*ORSet)
	if !ok {
		return nil, typeMismatch(s, base)
	}
	if le, err := b.Compare(s); err != nil {
		return nil, err
	} else if !le {
		return nil, errNotDominated(s)
	}
	out := NewORSet()
	for e, tags := range s.adds {
		btags := b.adds[e]
		for tag := range tags {
			if _, ok := btags[tag]; !ok {
				dst, ok := out.adds[e]
				if !ok {
					dst = map[string]struct{}{}
					out.adds[e] = dst
				}
				dst[tag] = struct{}{}
			}
		}
	}
	for tag := range s.tombs {
		if _, ok := b.tombs[tag]; !ok {
			out.tombs[tag] = struct{}{}
		}
	}
	return out, nil
}
