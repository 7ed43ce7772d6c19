//cfm:concurrency-ok the report runs independent catalog entries on host goroutines; each entry builds its own engines, and the printer emits their sections in catalog order

package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"cfm/internal/obsflags"
	"cfm/internal/scenario"
)

// poolSize is how many catalog entries the report runs at once:
// GOMAXPROCS, or 1 where concurrent entries would share state or cores.
// An observed run (-metrics-out, -trace-out, -http, -spans-out) keeps one
// registry, sampler and flight ring for the whole report, and -resume
// and -checkpoint-out name one Fig 3.13 checkpoint, so those runs take
// their entries one at a time. So does a run whose engines have several
// workers (-workers other than 1): the engines already use the cores.
func poolSize(obs *obsflags.Observatory) int {
	if obs.Wanted() || obs.Resume != "" || obs.CheckpointOut != "" || obs.Workers != 1 {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// entryPanic is a catalog entry's panic, re-raised on the goroutine that
// waits for the entry.
type entryPanic struct {
	title string
	value any
	stack []byte // the worker's stack where the entry panicked
}

func (p *entryPanic) Error() string {
	return fmt.Sprintf("%s: panic: %v\n\n%s", p.title, p.value, p.stack)
}

// outcome is one entry's finished run.
type outcome struct {
	section scenario.Section
	err     error
	panic   *entryPanic
}

// pool runs catalog entries on worker goroutines. Workers claim entries
// in catalog order from one counter and stop claiming once an entry
// fails, so every entry before the first failure in catalog order has
// been claimed and runs to the end. One worker is the serial run.
type pool struct {
	obs     *obsflags.Observatory
	entries []scenario.Entry
	workers int
	started bool

	next atomic.Int64 // index of the next entry to claim
	stop atomic.Bool  // set when an entry fails or the caller closes the pool
	wg   sync.WaitGroup

	out  []outcome
	done []chan struct{} // done[i] is closed once out[i] is written
}

func newPool(obs *obsflags.Observatory, entries []scenario.Entry, workers int) *pool {
	p := &pool{obs: obs, entries: entries, workers: max(1, min(workers, len(entries))),
		out: make([]outcome, len(entries)), done: make([]chan struct{}, len(entries))}
	for i := range p.done {
		p.done[i] = make(chan struct{})
	}
	return p
}

// wait returns entry i's section once the entry has run; call it in
// catalog order, from one goroutine. The first call starts the workers,
// so whatever the caller printed before it (the header and the first
// title, where cfmbench's setup_s ends) reaches stdout before any worker
// runs. An entry's panic is re-raised here, on the caller's goroutine.
func (p *pool) wait(i int) (scenario.Section, error) {
	if !p.started {
		p.started = true
		p.wg.Add(p.workers)
		for w := 0; w < p.workers; w++ {
			go p.work()
		}
	}
	<-p.done[i]
	o := p.out[i]
	if o.panic != nil {
		panic(o.panic)
	}
	return o.section, o.err
}

// close stops the workers claiming entries and waits for the running
// ones to finish.
func (p *pool) close() {
	p.stop.Store(true)
	p.wg.Wait()
}

func (p *pool) work() {
	defer p.wg.Done()
	for !p.stop.Load() {
		i := int(p.next.Add(1) - 1)
		if i >= len(p.entries) {
			return
		}
		p.out[i] = p.run(p.entries[i])
		if p.out[i].err != nil || p.out[i].panic != nil {
			p.stop.Store(true)
		}
		close(p.done[i])
	}
}

// run runs one entry, recovering its panic.
func (p *pool) run(e scenario.Entry) (o outcome) {
	defer func() {
		if r := recover(); r != nil {
			o.panic = &entryPanic{title: e.Title, value: r, stack: debug.Stack()}
		}
	}()
	o.err = e.Run(p.obs, &o.section)
	return o
}
