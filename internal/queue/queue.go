// Package queue provides the scheduling disciplines servers use to decide
// "what request to serve next" (paper §2.1): plain FIFO for task-oblivious
// baselines and a stable min-priority queue for BRB, where lower priority
// values are served first and ties break FIFO so equal-priority requests
// are never reordered.
//
// One package serves both sides of the repository: the simulator's
// servers queue *core.Request and the networked store's run queue
// queues its work items. Both types are generic and hold T unboxed, so
// steady-state Push and Pop allocate nothing.
package queue

// Discipline is a server scheduling queue. Push takes the item's
// priority alongside it (captured at push time; FIFO ignores it).
type Discipline[T any] interface {
	// Push enqueues v with priority prio (lower is served sooner).
	Push(v T, prio int64)
	// Pop dequeues the next item to serve; ok is false when empty.
	Pop() (v T, ok bool)
	// Len returns the number of queued items.
	Len() int
}

// FIFO is a first-in-first-out discipline (what Cassandra-style stores and
// the C3 baseline use). The zero value is ready to use.
//
// It is a ring buffer whose capacity doubles from 8, so it is always a
// power of two and sustained enqueue/dequeue neither leaks nor
// reallocates.
type FIFO[T any] struct {
	buf        []T
	head, size int
}

// NewFIFO returns an empty FIFO queue.
func NewFIFO[T any]() *FIFO[T] { return &FIFO[T]{} }

// Push enqueues v at the tail; the priority is ignored.
func (q *FIFO[T]) Push(v T, _ int64) {
	if q.size == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.size)&(len(q.buf)-1)] = v
	q.size++
}

func (q *FIFO[T]) grow() {
	n := max(2*len(q.buf), 8)
	nb := make([]T, n)
	for i := 0; i < q.size; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = nb
	q.head = 0
}

// Pop dequeues from the head.
func (q *FIFO[T]) Pop() (T, bool) {
	var zero T
	if q.size == 0 {
		return zero, false
	}
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.size--
	return v, true
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return q.size }

// Priority is a stable min-priority discipline: Pop returns the item with
// the smallest priority; among equal priorities, the earliest-pushed wins
// (FIFO tie-break). (prio, push seq) is a total order, so the pop
// sequence is fully determined by the pushes. This is the per-server
// priority queue of the credits strategy and of the store's run queue,
// and the building block of the ideal model's global queue.
//
// The heap is hand-rolled rather than built on the standard library's
// heap interface, which boxes every pushed and popped entry into an
// `any` — an allocation per item on the store's serving path.
type Priority[T any] struct {
	h   []entry[T]
	seq uint64
}

type entry[T any] struct {
	v    T
	prio int64
	seq  uint64
}

func (e *entry[T]) less(o *entry[T]) bool {
	if e.prio != o.prio {
		return e.prio < o.prio
	}
	return e.seq < o.seq
}

// NewPriority returns an empty priority queue.
func NewPriority[T any]() *Priority[T] { return &Priority[T]{} }

// Push enqueues v with priority prio.
func (q *Priority[T]) Push(v T, prio int64) {
	q.h = append(q.h, entry[T]{v: v, prio: prio, seq: q.seq})
	q.seq++
	h := q.h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].less(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// Pop dequeues the lowest-priority-value item.
func (q *Priority[T]) Pop() (T, bool) {
	if len(q.h) == 0 {
		var zero T
		return zero, false
	}
	h := q.h
	n := len(h) - 1
	top := h[0].v
	h[0] = h[n]
	h[n] = entry[T]{}
	h = h[:n]
	q.h = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && h[l].less(&h[least]) {
			least = l
		}
		if r < n && h[r].less(&h[least]) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return top, true
}

// Len returns the number of queued items.
func (q *Priority[T]) Len() int { return len(q.h) }

// PeekPriority returns the priority of the head item; ok is false when
// empty. The ideal model uses it to pick the best of several queues.
func (q *Priority[T]) PeekPriority() (prio int64, ok bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].prio, true
}

// Factory constructs a fresh Discipline; servers take one so strategies can
// choose FIFO vs priority scheduling.
type Factory[T any] func() Discipline[T]

// FIFOFactory builds FIFO queues.
func FIFOFactory[T any]() Discipline[T] { return NewFIFO[T]() }

// PriorityFactory builds priority queues.
func PriorityFactory[T any]() Discipline[T] { return NewPriority[T]() }
