package queue

import (
	"testing"
	"testing/quick"

	"github.com/brb-repro/brb/internal/randx"
)

type testItem struct {
	prio int64
	id   int
}

func push(q Discipline[*testItem], it *testItem) { q.Push(it, it.prio) }

func mustPop(t *testing.T, q Discipline[*testItem]) *testItem {
	t.Helper()
	it, ok := q.Pop()
	if !ok {
		t.Fatal("Pop on a non-empty queue reported empty")
	}
	return it
}

func TestFIFOOrder(t *testing.T) {
	q := NewFIFO[*testItem]()
	for i := 0; i < 100; i++ {
		push(q, &testItem{prio: int64(100 - i), id: i})
	}
	for i := 0; i < 100; i++ {
		if it := mustPop(t, q); it.id != i {
			t.Fatalf("FIFO popped id %d at position %d", it.id, i)
		}
	}
	if it, ok := q.Pop(); ok || it != nil {
		t.Fatal("Pop on empty FIFO returned an item")
	}
}

func TestFIFOInterleaved(t *testing.T) {
	q := NewFIFO[*testItem]()
	next := 0
	pushed := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			push(q, &testItem{id: pushed})
			pushed++
		}
		for i := 0; i < 2; i++ {
			if it := mustPop(t, q); it.id != next {
				t.Fatalf("interleaved FIFO order broken: got %d want %d", it.id, next)
			}
			next++
		}
	}
	if q.Len() != pushed-next {
		t.Fatalf("Len = %d, want %d", q.Len(), pushed-next)
	}
}

// TestFIFOWrapAcrossGrow: a ring whose live items wrap past the end of
// the buffer keeps their order when a push forces it to grow.
func TestFIFOWrapAcrossGrow(t *testing.T) {
	q := NewFIFO[int]()
	for i := 0; i < 8; i++ {
		q.Push(i, 0)
	}
	for want := 0; want < 5; want++ {
		if v, _ := q.Pop(); v != want {
			t.Fatalf("popped %d, want %d", v, want)
		}
	}
	// Head at slot 5; 8..12 fill slots 0..4, so the live items wrap.
	for i := 8; i < 13; i++ {
		q.Push(i, 0)
	}
	if q.head == 0 || len(q.buf) != 8 {
		t.Fatalf("setup: head %d cap %d, want a wrapped ring of 8", q.head, len(q.buf))
	}
	q.Push(13, 0) // full: grows to 16 with the wrapped items
	if len(q.buf) != 16 {
		t.Fatalf("cap %d after growing, want 16", len(q.buf))
	}
	for want := 5; want < 14; want++ {
		if v, ok := q.Pop(); !ok || v != want {
			t.Fatalf("popped %d,%v, want %d", v, ok, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after draining", q.Len())
	}
}

func TestPriorityOrder(t *testing.T) {
	q := NewPriority[*testItem]()
	prios := []int64{5, 3, 9, 1, 7}
	for i, p := range prios {
		push(q, &testItem{prio: p, id: i})
	}
	want := []int64{1, 3, 5, 7, 9}
	for _, w := range want {
		if it := mustPop(t, q); it.prio != w {
			t.Fatalf("priority pop = %d, want %d", it.prio, w)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty Priority reported ok")
	}
}

func TestPriorityFIFOTieBreak(t *testing.T) {
	q := NewPriority[*testItem]()
	for i := 0; i < 50; i++ {
		push(q, &testItem{prio: 42, id: i})
	}
	for i := 0; i < 50; i++ {
		if it := mustPop(t, q); it.id != i {
			t.Fatalf("equal-priority items reordered: got %d at %d", it.id, i)
		}
	}
}

func TestPriorityCapturedAtPush(t *testing.T) {
	q := NewPriority[*testItem]()
	a := &testItem{prio: 10, id: 0}
	b := &testItem{prio: 20, id: 1}
	push(q, a)
	push(q, b)
	b.prio = 1 // must not reorder
	if got := mustPop(t, q); got.id != 0 {
		t.Fatal("mutating priority after push reordered the queue")
	}
}

func TestPriorityPeekPriority(t *testing.T) {
	q := NewPriority[*testItem]()
	if _, ok := q.PeekPriority(); ok {
		t.Fatal("PeekPriority on empty reported ok")
	}
	push(q, &testItem{prio: 7})
	push(q, &testItem{prio: 3})
	if p, ok := q.PeekPriority(); !ok || p != 3 {
		t.Fatalf("PeekPriority = %d,%v want 3,true", p, ok)
	}
	if q.Len() != 2 {
		t.Fatal("PeekPriority consumed an item")
	}
}

func TestFactories(t *testing.T) {
	if _, ok := FIFOFactory[int]().(*FIFO[int]); !ok {
		t.Fatal("FIFOFactory wrong type")
	}
	if _, ok := PriorityFactory[int]().(*Priority[int]); !ok {
		t.Fatal("PriorityFactory wrong type")
	}
}

// Property: Priority pops in non-decreasing priority order and preserves
// push order among equal priorities.
func TestQuickPriorityStableOrder(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%200) + 1
		r := randx.New(seed)
		q := NewPriority[*testItem]()
		for i := 0; i < n; i++ {
			push(q, &testItem{prio: int64(r.Intn(10)), id: i})
		}
		lastPrio := int64(-1)
		lastIDForPrio := map[int64]int{}
		for q.Len() > 0 {
			it, _ := q.Pop()
			if it.prio < lastPrio {
				return false
			}
			if prev, ok := lastIDForPrio[it.prio]; ok && it.id < prev {
				return false // FIFO violated within a priority class
			}
			lastIDForPrio[it.prio] = it.id
			lastPrio = it.prio
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: FIFO preserves exact insertion order under arbitrary
// interleavings of pushes and pops.
func TestQuickFIFOOrder(t *testing.T) {
	f := func(seed uint64, opsRaw uint8) bool {
		ops := int(opsRaw) + 10
		r := randx.New(seed)
		q := NewFIFO[*testItem]()
		nextPush, nextPop := 0, 0
		for i := 0; i < ops; i++ {
			if r.Float64() < 0.6 || q.Len() == 0 {
				push(q, &testItem{id: nextPush})
				nextPush++
			} else {
				it, _ := q.Pop()
				if it.id != nextPop {
					return false
				}
				nextPop++
			}
		}
		for q.Len() > 0 {
			it, _ := q.Pop()
			if it.id != nextPop {
				return false
			}
			nextPop++
		}
		return nextPop == nextPush
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Len always equals pushes minus pops for both disciplines.
func TestQuickLenInvariant(t *testing.T) {
	f := func(seed uint64, usePrio bool) bool {
		r := randx.New(seed)
		var q Discipline[*testItem]
		if usePrio {
			q = NewPriority[*testItem]()
		} else {
			q = NewFIFO[*testItem]()
		}
		pushed, popped := 0, 0
		for i := 0; i < 500; i++ {
			if r.Float64() < 0.55 {
				push(q, &testItem{prio: int64(r.Intn(100))})
				pushed++
			} else if _, ok := q.Pop(); ok {
				popped++
			}
			if q.Len() != pushed-popped {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFIFO(b *testing.B) {
	q := NewFIFO[*testItem]()
	it := &testItem{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(it, 0)
		q.Pop()
	}
}

func BenchmarkPriority(b *testing.B) {
	q := NewPriority[*testItem]()
	r := randx.New(1)
	items := make([]*testItem, 1024)
	for i := range items {
		items[i] = &testItem{prio: int64(r.Intn(1 << 20))}
	}
	// Keep a standing population of 512 so heap depth is realistic.
	for i := 0; i < 512; i++ {
		push(q, items[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push(q, items[i&1023])
		q.Pop()
	}
}
