package admission

import "container/heap"

// waitQueue is the bounded admission queue: a min-heap of waiters by
// deadline, so both shedding under overflow and granting freed slots pick the
// oldest-deadline submission first. Not self-locking; the Controller
// serializes access.
type waitQueue struct {
	items waiterHeap
}

func (q *waitQueue) len() int { return len(q.items) }

// peek returns the oldest-deadline waiter without removing it.
func (q *waitQueue) peek() *waiter { return q.items[0] }

// push adds a waiter (capacity is enforced by the Controller, which sheds
// before pushing).
func (q *waitQueue) push(w *waiter) { heap.Push(&q.items, w) }

// pop removes and returns the oldest-deadline waiter.
func (q *waitQueue) pop() *waiter {
	w := heap.Pop(&q.items).(*waiter)
	w.index = -1
	return w
}

// remove takes w out of the queue; it reports false when w was already
// granted or shed (its decision is in its channel).
func (q *waitQueue) remove(w *waiter) bool {
	if w.index < 0 || w.index >= len(q.items) || q.items[w.index] != w {
		return false
	}
	heap.Remove(&q.items, w.index)
	w.index = -1
	return true
}

// drainAll empties the queue, returning every waiter (drain mode sheds them).
func (q *waitQueue) drainAll() []*waiter {
	out := make([]*waiter, 0, len(q.items))
	for len(q.items) > 0 {
		out = append(out, q.pop())
	}
	return out
}

// waiterHeap implements heap.Interface ordered by deadline.
type waiterHeap []*waiter

func (h waiterHeap) Len() int           { return len(h) }
func (h waiterHeap) Less(i, j int) bool { return h[i].deadline.Before(h[j].deadline) }
func (h waiterHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *waiterHeap) Push(x interface{}) {
	w := x.(*waiter)
	w.index = len(*h)
	*h = append(*h, w)
}

func (h *waiterHeap) Pop() interface{} {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}
