package fixture

import "sync"

func work() {}

// Detach spawns goroutines no owner can wait for or stop.
func Detach() {
	go work()
	go func() {
		work()
	}()
}

type job struct {
	wg *sync.WaitGroup
}

var pool struct {
	once sync.Once
	jobs chan job
}

// startPool starts persistent workers: each signals its job's
// WaitGroup, but nothing joins the workers themselves, so they outlive
// every caller.
func startPool() {
	pool.jobs = make(chan job)
	for i := 0; i < 2; i++ {
		go func() {
			for j := range pool.jobs {
				work()
				j.wg.Done()
			}
		}()
	}
}

// Dispatch starts the pool once and waits for its job, not its workers.
func Dispatch() {
	pool.once.Do(startPool)
	var wg sync.WaitGroup
	wg.Add(1)
	pool.jobs <- job{wg: &wg}
	wg.Wait()
}
