package congest

import "runtime"

// StepProgram is the stackless, non-blocking form of a Program. One value
// runs every node of a run: the engine calls the program for the node
// instead of the node blocking on the engine, and the program keeps each
// node's state in its own slab, indexed by Node.V. The correspondence to
// the blocking form is mechanical (see the package documentation for a
// worked example):
//
//   - Init replaces the code before the first Sync,
//   - Step(nd, r, inbox) replaces the code between the r-th and (r+1)-th
//     Sync: it receives the messages the blocking program's (r+1)-th Sync
//     would return (sorted by port) and queues the next round's sends,
//   - returning done=true replaces returning from the Program; sends queued
//     in the final call are still delivered, exactly like a blocking
//     program's sends before return.
//
// Calls for distinct nodes may run at once (EngineStepped's worker pool,
// EngineGoroutine's node goroutines), so a call may write only its own
// node's slots and must not mutate shared state without synchronization;
// the calls for one node never overlap. A value serves one run, since its
// slabs hold that run's node states, unless its Init resets every slot the
// node reads.
//
// A StepProgram must not call Node.Sync (the engine owns the barrier; a
// Sync call aborts the run with an error). The inbox slice and, on
// EngineStepped, the payload bytes it references are only valid until Step
// returns — copy anything that must be retained. So is the *Node: on
// EngineStepped one Node per worker stands for each node it runs in turn,
// so a program must not keep it past the call (keep Node.V instead).
type StepProgram interface {
	// Init runs before round 0; the node may Send. Returning true ends the
	// node's participation immediately (its sends are still delivered).
	Init(nd *Node) (done bool)
	// Step runs once per synchronous round r = 0, 1, 2, ..., unless the
	// node is sleeping (Node.SleepUntil) and its inbox is empty, with the
	// messages addressed to this node during the previous send opportunity
	// (Init for r=0, Step r-1 otherwise), sorted by port. A skipped round
	// is one in which the node received nothing and sends nothing.
	// Returning true ends the node's participation.
	Step(nd *Node, round int, inbox []Incoming) (done bool)
}

// BlockingFromStep adapts a StepProgram to the blocking Program API, so
// stepped programs run unchanged — with identical outputs and metrics — on
// the goroutine engine. Every node goroutine drives the same p. This is
// the adapter behind RunStepped's engine dispatch and the lever the
// conformance suite uses to hold the stepped program corpus byte-identical
// across both engines.
//
// Sleeping (Node.SleepUntil) is emulated here: the node still calls Sync
// every round, so the barrier and fault hooks see every opportunity, but
// Step is skipped while r is before the sleep target and the inbox is
// empty — exactly the rounds the stepped engine skips.
func BlockingFromStep(p StepProgram) Program {
	return func(nd *Node) {
		if p.Init(nd) {
			return
		}
		for r := 0; ; r++ {
			in := nd.Sync()
			if r < int(nd.sleep) && len(in) == 0 {
				continue
			}
			nd.sleep = 0
			if p.Step(nd, r, in) {
				return
			}
		}
	}
}

// RunStepped executes p on every node until all nodes are done, returning
// the collected metrics. By default the run is stackless: a
// GOMAXPROCS-sized worker pool drives all nodes over the CSR message
// slots, so memory per node is the program's own per-node state plus
// 12 bytes of engine state — no goroutine stacks. Under EngineGoroutine the
// program is adapted to blocking form and produces identical results, which
// is what makes porting a Program to a StepProgram a pure performance
// change. From 2¹⁸ nodes on, a stepped run ends with a collection: left
// to the GC pacer, the caller's next allocations would reuse the run's dead
// state or stack on it by chance (peak RSS 225 or 255 MiB, 10⁶-node arbmds).
func (net *Network) RunStepped(p StepProgram) (Metrics, error) {
	if net.cfg.Engine == EngineGoroutine {
		return net.Run(BlockingFromStep(p))
	}
	m, err := net.runStepped(p)
	if net.g.N() >= 1<<18 {
		runtime.GC()
	}
	return m, err
}
