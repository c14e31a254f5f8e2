// Package gshare exercises the static race pass: shared mutable state
// touched across goroutines needs a lock, a happens-before edge, or a
// disjoint slot.
package gshare

import (
	"context"
	"sync"

	"fixture/internal/experiments"
)

// Unsynced increments a captured counter from concurrent pool tasks: the
// canonical racy shape.
func Unsynced(p *experiments.Pool, items []int) int {
	n := 0
	for range items {
		p.Go(func(context.Context) error { // want `may race on n`
			n++
			return nil
		})
	}
	p.Wait()
	return n
}

// UnsyncedVar is Unsynced with the task bound to a variable first: the
// spawn inventory must resolve the variable to its literal to see the race.
func UnsyncedVar(p *experiments.Pool, items []int) int {
	n := 0
	for range items {
		task := func(context.Context) error {
			n++
			return nil
		}
		p.Go(task) // want `may race on n`
	}
	p.Wait()
	return n
}

// Locked is the same counter under a common mutex and is clean.
func Locked(p *experiments.Pool, items []int) int {
	var mu sync.Mutex
	n := 0
	for range items {
		p.Go(func(context.Context) error {
			mu.Lock()
			n++
			mu.Unlock()
			return nil
		})
	}
	p.Wait()
	return n
}

// Slotted writes disjoint elements indexed by a per-iteration variable and
// is clean: each task owns its slot, the spawner reads only after the join.
func Slotted(p *experiments.Pool, items []int) []int {
	rows := make([]int, len(items))
	for i := range items {
		i := i
		p.Go(func(context.Context) error {
			rows[i] = i * 2
			return nil
		})
	}
	p.Wait()
	return rows
}

// ParentRace mutates a flag the goroutine reads, between spawn and join.
func ParentRace(done chan struct{}) {
	flag := false
	go func() { // want `may race on flag`
		_ = flag
		done <- struct{}{}
	}()
	flag = true
	<-done
}

// Waived is an approximate counter whose torn updates are acceptable; the
// waiver records that decision.
func Waived(p *experiments.Pool, items []int) int {
	hits := 0
	for range items {
		//ispy:race approximate hit counter; torn updates acceptable in this fixture
		p.Go(func(context.Context) error {
			hits++
			return nil
		})
	}
	p.Wait()
	return hits
}
