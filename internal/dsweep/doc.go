// Package dsweep is the distributed sweep coordinator: it scales the
// parallel sweep engine (internal/sweep, DESIGN.md S23) past one machine by
// sharding a point grid across a fleet of bfdnd workers (internal/server,
// S24) and merging the streamed results back into strict point order.
//
// The paper's experiment grids — the Figure 1 regions and the E1/E10/E14/A1
// sweeps over (algorithm, tree, k, seed) — are embarrassingly parallel, and
// the full version (arXiv:2301.13307) motivates k/n ranges far larger than
// one machine comfortably holds. dsweep is the reproduction-infrastructure
// answer (DESIGN.md S26): it is not part of the paper's model, it is how the
// paper's measurements are scaled out.
//
// The contract is determinism end to end. Per-point randomness is derived
// from (base seed, global point index) alone — sweep.DeriveSeed, carried to
// workers via the sweep request's indexBase field — so a point's result does
// not depend on which worker ran it, how shards were cut, or in what order
// they finished. The coordinator's merged JSONL output is therefore
// byte-identical to a local sweep.Run of the same plan, at any worker count,
// under retries, failover, and hedging.
//
// Robustness, per shard: a dispatch deadline, bounded retries with
// exponential backoff and jitter, failover of a dead worker's unfinished
// shards to healthy workers (a worker is declared dead after consecutive
// failures), optional hedged re-dispatch of straggler tail shards (first
// completion wins; duplicates are discarded by the merger), and context
// cancellation that aborts every in-flight worker request.
//
// Capacity-weighted sharding: before dispatching, the coordinator reads each
// worker's GET /capacity advertisement. A worker's maxJobs bounds how many
// shards the coordinator keeps in flight on it, its maxPoints bounds shard
// size, and a draining worker is skipped at startup. Faster or larger
// workers therefore pull proportionally more of the queue.
//
// Observability: Run returns Stats (shards, retries, failovers, hedges,
// dead workers), and Options.Tracer records one dsweep.dispatch span per
// shard attempt. The coordinator registers no metrics.
package dsweep
