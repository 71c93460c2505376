package memctrl

// eventKind discriminates scheduled simulator events.
type eventKind uint8

const (
	// evComplete: a bank finished servicing its in-flight request.
	evComplete eventKind = iota
	// evCacheComplete: a rank's WOM-cache array finished its request.
	evCacheComplete
	// evRefreshTick: the periodic PCM-refresh scheduling point.
	evRefreshTick
	// evRefreshDone: a rank's burst-mode refresh operation completed.
	evRefreshDone
	// evCacheRefreshDone: a rank's WOM-cache refresh completed.
	evCacheRefreshDone
)

// event is one scheduled occurrence. seq breaks time ties deterministically
// in scheduling order.
type event struct {
	time Clock
	seq  uint64
	// token matches server.token for completion events; a cancellation
	// bumps the server token, orphaning the in-flight event.
	token uint64
	// target is the bank index (rank*BanksPerRank + bank) of an evComplete
	// and the rank of every other per-rank event.
	target int32
	kind   eventKind
}

// eventHeap is a binary min-heap on (time, seq) over plain event values.
// It is typed rather than built on container/heap so that push and pop move
// events without boxing them into interface values: the event loop runs
// allocation-free once the backing array has grown to its peak depth.
// (time, seq) is a total order, so the pop order is fully determined.
type eventHeap []event

func (e event) before(o event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// push inserts e, sifting it up from the bottom.
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
}

// pop removes and returns the minimum; the heap must be non-empty.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r].before(q[child]) {
			child = r
		}
		if !q[child].before(last) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = last
	return top
}

// schedule pushes an event.
func (c *Controller) schedule(e event) {
	e.seq = c.seq
	c.seq++
	c.events.push(e)
}

// nextEventTime peeks at the earliest scheduled event time.
func (c *Controller) nextEventTime() (Clock, bool) {
	if len(c.events) == 0 {
		return 0, false
	}
	return c.events[0].time, true
}
