package fixture

// Fire mirrors the wildfire.Fire shape: the lock-bearing cache lives
// behind a pointer, so Fire values copy freely.
type Fire struct {
	ID int
	pp *prep
}

// Spread copies Fire values — legal, the prep pointer is shared — and
// touches caches only through pointers.
func Spread(fires []Fire, c *Cache) []Fire {
	out := make([]Fire, 0, len(fires))
	for _, f := range fires {
		out = append(out, f)
	}
	fresh := Cache{} // composite literal: a fresh value, not a copy
	_ = fresh
	_ = c
	return out
}

// enqueue shares the job through a pointer: the WaitGroup is not
// forked, matching a worker pool's by-reference dispatch.
func enqueue(ch chan *job, j *job) {
	ch <- j
}
