//cfm:concurrency-ok Chapter 6's philosophers and pipeline stages are host goroutines driving the binding runtime, not simulated tickers
package scenario

import (
	"fmt"
	"sync/atomic"

	"cfm/internal/binding"
	"cfm/internal/obsflags"
)

func chapter6(_ *obsflags.Observatory, s *Section) error {
	// Fig 6.5: dining philosophers terminate with data binding.
	b := binding.NewBinder()
	done := make(chan bool, 5)
	for i := 0; i < 5; i++ {
		go func(i int) {
			c := b.Client(fmt.Sprintf("p%d", i))
			region := binding.R("chopstick", binding.Dim{Start: i, Stop: i + 1, Step: 1})
			if i == 4 {
				region = binding.R("chopstick", binding.Dim{Start: 0, Stop: 4, Step: 4})
			}
			for m := 0; m < 20; m++ {
				nb, err := c.Bind(region, binding.RW, true)
				if err != nil {
					done <- false
					return
				}
				c.Unbind(nb)
			}
			done <- true
		}(i)
	}
	ok := true
	for i := 0; i < 5; i++ {
		ok = <-done && ok
	}
	s.check("Fig 6.5: dining philosophers, 100 meals, no deadlock", ok, fmt.Sprintf("%d binds", b.Binds))

	// Fig 6.10: pipeline ordering. Stage i reads stage i-1's progress
	// while stage i-1 runs ahead, so both counters are atomic.
	const stages, items = 8, 200
	var violations atomic.Int64
	progress := make([]atomic.Int64, stages)
	g := binding.Spawn(stages, func(i int, procs []*binding.Proc) {
		for j := 0; j < items; j++ {
			if i > 0 {
				procs[i-1].Await(j)
				if progress[i-1].Load() <= int64(j) {
					violations.Add(1)
				}
			}
			progress[i].Store(int64(j + 1))
			procs[i].GrantRange(0, j)
		}
	})
	g.Wait()
	s.check("Fig 6.10: 8-stage pipeline preserves item order", violations.Load() == 0,
		fmt.Sprintf("%d ordering violations over %d items", violations.Load(), items))
	return nil
}
