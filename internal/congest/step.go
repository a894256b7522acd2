package congest

import "runtime"

// StepProgram is the stackless, non-blocking form of a Program: per-node
// state lives in an explicit struct, and the engine calls the node instead
// of the node blocking on the engine. The correspondence to the blocking
// form is mechanical (see the package documentation for a worked example):
//
//   - Init replaces the code before the first Sync,
//   - Step(nd, r, inbox) replaces the code between the r-th and (r+1)-th
//     Sync: it receives the messages the blocking program's (r+1)-th Sync
//     would return (sorted by port) and queues the next round's sends,
//   - returning done=true replaces returning from the Program; sends queued
//     in the final call are still delivered, exactly like a blocking
//     program's sends before return.
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

// StepFactory builds the per-node StepProgram instance. Under EngineStepped
// factories are invoked concurrently from the worker pool (always with
// distinct nodes), so a factory must not mutate shared state without
// synchronization; capturing shared output slices that nodes write to
// disjoint indices is fine. Per-node state may likewise come from one slab
// indexed by Node.V, which avoids an allocation per node; such a factory
// value, like one whose output slices are shared, serves one run. The
// *Node is valid only for the call, as in Init and Step: the program must
// not store it.
type StepFactory func(nd *Node) StepProgram

// BlockingFromStep adapts a StepFactory to the blocking Program API, so
// stepped programs run unchanged — with identical outputs and metrics — on
// the goroutine engine. This is the adapter behind RunStepped's engine
// dispatch and the lever the conformance suite uses to hold the stepped
// program corpus byte-identical across both engines.
//
// Sleeping (Node.SleepUntil) is emulated here: the node still calls Sync
// every round, so the barrier and fault hooks see every opportunity, but
// Step is skipped while r is before the sleep target and the inbox is
// empty — exactly the rounds the stepped engine skips.
func BlockingFromStep(f StepFactory) Program {
	return func(nd *Node) {
		sp := f(nd)
		if sp.Init(nd) {
			return
		}
		for r := 0; ; r++ {
			in := nd.Sync()
			if r < int(nd.sleep) && len(in) == 0 {
				continue
			}
			nd.sleep = 0
			if sp.Step(nd, r, in) {
				return
			}
		}
	}
}

// RunStepped executes the stepped program built by f on every node until all
// nodes are done, returning the collected metrics. By default the run is
// stackless: a GOMAXPROCS-sized worker pool drives all nodes over the CSR
// message slots, so memory per node is the program's own state struct plus
// a few machine words — no goroutine stacks. Under EngineGoroutine the
// program is adapted to blocking form and produces identical results, which
// is what makes porting a Program to a StepProgram a pure performance
// change. From 2¹⁸ nodes on, a stepped run ends with a collection: left
// to the GC pacer, the caller's next allocations would reuse the run's dead
// state or stack on it by chance (peak RSS 225 or 255 MiB, 10⁶-node arbmds).
func (net *Network) RunStepped(f StepFactory) (Metrics, error) {
	if net.cfg.Engine == EngineGoroutine {
		return net.Run(BlockingFromStep(f))
	}
	m, err := net.runStepped(f)
	if net.g.N() >= 1<<18 {
		runtime.GC()
	}
	return m, err
}
