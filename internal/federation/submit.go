package federation

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/solver"
)

// SubmitFederated implements serve.Federation: fan a Params.Federate spec
// out over the fleet as one shard per node, await them all, and reduce to
// a best-of-fleet Result with per-node provenance.
//
// Sharding is deterministic from the sorted fleet and the spec alone:
// shard rank r holds islands [r's contiguous slice] of the configured
// island count (remainder islands go to the low ranks) and the
// proportional slice of the population, runs on sorted peer r, and
// derives its RNG from the job seed split FedNodes ways at rank r. The
// fan-out spans min(fleet, islands) nodes; on a fleet of one (or a
// single-island spec) the job simply runs locally, unfederated.
//
// The returned owner job lives on this node's service. Its event stream
// relays the local shard's progress (generations, migrations, degraded
// peers); its terminal Result carries the fleet-best schedule, summed
// evaluations, and a NodeResult per shard — nodes that failed to return
// a result are present but marked degraded.
func (n *Node) SubmitFederated(ctx context.Context, spec solver.Spec) (*solver.Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if !spec.Params.Federate {
		return nil, fmt.Errorf("federation: spec does not request federation (params.federate)")
	}

	islands := spec.Params.Islands
	if islands <= 0 {
		islands = 4 // the island model's default deme count
	}
	nodes := len(n.peers)
	if nodes > islands {
		nodes = islands
	}
	if nodes <= 1 {
		// Nothing to federate over: run the plain island job locally.
		local := spec
		local.Params.Federate = false
		return n.svc.Submit(ctx, local)
	}

	// The run key carries the owner rank, a per-incarnation nonce, and a
	// sequence number: peers dedupe shard submissions and buffer batches
	// by key in memory, so keys must not repeat across owner restarts.
	key := "f" + strconv.Itoa(n.rank) + "-" + n.nonce + "-" + strconv.FormatInt(n.keySeq.Add(1), 10)
	shards, err := n.shardSpecs(spec, key, islands, nodes)
	if err != nil {
		return nil, err
	}
	return n.svc.SubmitRunner(ctx, spec, func(ctx context.Context, emit func(solver.Event)) (*solver.Result, error) {
		return n.runFederated(ctx, spec, key, shards, emit)
	})
}

// shardSpecs derives the per-rank shard specs: contiguous island slices
// (remainder to the low ranks), an exact-sum proportional population
// split, and the federation coordinates the solver turns into SplitN
// substreams and exchange wiring. Every shard is validated here so a
// malformed split fails the submission synchronously, not a remote node
// asynchronously.
func (n *Node) shardSpecs(spec solver.Spec, key string, islands, nodes int) ([]solver.Spec, error) {
	pop := spec.Params.Pop
	if pop <= 0 {
		pop = 80 // the spec-level default (Spec.normalized)
	}
	base, rem := islands/nodes, islands%nodes
	shards := make([]solver.Spec, nodes)
	cum := 0 // islands assigned to ranks < r
	for r := 0; r < nodes; r++ {
		si := base
		if r < rem {
			si++
		}
		sp := spec
		sp.Params.Federate = false
		sp.Params.FedKey = key
		sp.Params.FedNodes = nodes
		sp.Params.FedRank = r
		// Only a shard off this node is worth checkpointing, and only
		// when failover can resume it: if this node dies the run dies.
		sp.Params.FedCheckpoint = n.cfg.FailoverEnabled && r != n.rank
		sp.Params.Islands = si
		sp.Params.Pop = pop*(cum+si)/islands - pop*cum/islands
		cum += si
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("federation: shard %d spec invalid: %w", r, err)
		}
		shards[r] = sp
	}
	return shards, nil
}

// runFederated is the owner job's body: launch every shard, await them
// all, reduce.
func (n *Node) runFederated(ctx context.Context, spec solver.Spec, key string, shards []solver.Spec, emit func(solver.Event)) (*solver.Result, error) {
	start := time.Now()
	// Own the key for the run's lifetime: inbound batches carry shard
	// checkpoints that failover resumes lost shards from.
	n.registerOwned(key)
	defer n.unregisterOwned(key)
	type shardOut struct {
		rank int
		res  *solver.Result
		err  error
	}
	outs := make([]shardOut, len(shards))
	var wg sync.WaitGroup
	for r := range shards {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			res, err := n.runShard(ctx, r, shards[r], emit)
			outs[r] = shardOut{rank: r, res: res, err: err}
		}(r)
	}
	wg.Wait()

	// Reduce: fleet-best by objective, rank breaking ties so the pick is
	// deterministic; evaluations sum, generations take the max.
	res := &solver.Result{
		Model:    spec.Model,
		Instance: spec.Problem.Instance,
		Seed:     spec.Seed,
		Canceled: ctx.Err() != nil,
	}
	best := -1
	for _, o := range outs {
		nr := solver.NodeResult{Node: n.peers[o.rank], Rank: o.rank, Degraded: o.err != nil || o.res == nil}
		if o.err != nil {
			n.logf("federation: %s shard %d on %s: %v", key, o.rank, n.peers[o.rank], o.err)
		}
		if o.res != nil {
			nr.BestObjective = o.res.BestObjective
			nr.Evaluations = o.res.Evaluations
			nr.Generations = o.res.Generations
			res.Evaluations += o.res.Evaluations
			if o.res.Generations > res.Generations {
				res.Generations = o.res.Generations
			}
			if o.res.Canceled {
				res.Canceled = true
			}
			if best < 0 || o.res.BestObjective < outs[best].res.BestObjective {
				best = o.rank
			}
		}
		res.Nodes = append(res.Nodes, nr)
	}
	sort.Slice(res.Nodes, func(i, j int) bool { return res.Nodes[i].Rank < res.Nodes[j].Rank })
	if best < 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("federation: every shard of %s failed", key)
	}
	br := outs[best].res
	res.Kind, res.Encoding = br.Kind, br.Encoding
	res.BestObjective = br.BestObjective
	res.Elapsed = time.Since(start)

	// The fleet-best schedule: local shards carry it in-process; a remote
	// winner ships its packed genome, which we decode and re-validate
	// here. A damaged or stale genome falls back to the best shard that
	// does have a reconstructable schedule — never a blind decode.
	if br.Schedule != nil {
		res.Schedule = br.Schedule
	} else if br.BestGenome != nil {
		sched, obj, rerr := solver.ReconstructSchedule(spec, *br.BestGenome)
		if rerr == nil && obj == br.BestObjective {
			res.Schedule = sched
		} else {
			n.logf("federation: %s: reconstructing winner genome from %s: err=%v", key, n.peers[best], rerr)
		}
	}
	if res.Schedule == nil {
		// Fall back over the remaining shards in objective order.
		order := append([]shardOut(nil), outs...)
		sort.Slice(order, func(i, j int) bool {
			oi, oj := order[i].res, order[j].res
			switch {
			case oi == nil:
				return false
			case oj == nil:
				return true
			case oi.BestObjective != oj.BestObjective:
				return oi.BestObjective < oj.BestObjective
			}
			return order[i].rank < order[j].rank
		})
		for _, o := range order {
			if o.res == nil || o.rank == best {
				continue
			}
			if o.res.Schedule != nil {
				res.Schedule, res.BestObjective = o.res.Schedule, o.res.BestObjective
				res.Kind, res.Encoding = o.res.Kind, o.res.Encoding
				break
			}
			if o.res.BestGenome != nil {
				if sched, obj, rerr := solver.ReconstructSchedule(spec, *o.res.BestGenome); rerr == nil && obj == o.res.BestObjective {
					res.Schedule, res.BestObjective = sched, o.res.BestObjective
					res.Kind, res.Encoding = o.res.Kind, o.res.Encoding
					break
				}
			}
		}
	}

	if ref, kind, rerr := solver.ReferenceKind(spec); rerr == nil && ref > 0 {
		res.Reference, res.RefKind = ref, kind
		res.Gap = (res.BestObjective - ref) / ref
	}
	return res, nil
}

// runShard executes one shard: locally through the service when the rank
// is ours, remotely through the peer's API otherwise. Remote submissions
// are idempotent under a key derived from the run key and rank, so
// transient submit failures retry without double-starting the shard.
//
// A remote shard that errors out gets one failover attempt when
// Config.FailoverEnabled: if the peer is confirmed dead and the shard has
// a tracked checkpoint, it is resumed on a surviving node (failover.go);
// otherwise — and on any failover error — the original error stands and
// the shard degrades as before.
func (n *Node) runShard(ctx context.Context, rank int, shard solver.Spec, emit func(solver.Event)) (*solver.Result, error) {
	if rank == n.rank {
		job, err := n.svc.Submit(ctx, shard)
		if err != nil {
			return nil, err
		}
		// Relay the local shard's progress into the owner's stream (its
		// lifecycle events stay local — the owner has its own).
		if emit != nil {
			for ev := range job.Events() {
				switch ev.Type {
				case solver.EventStarted, solver.EventDone:
				default:
					emit(ev)
				}
			}
		}
		return job.Await(ctx)
	}

	res, err := n.remoteShard(ctx, rank, shard)
	if err == nil || !n.cfg.FailoverEnabled || ctx.Err() != nil {
		return res, err
	}
	res, ferr := n.failover(ctx, rank, shard, err)
	if ferr != nil {
		n.logf("federation: %s shard %d: no failover (%v); degrading", key(shard), rank, ferr)
		return nil, err
	}
	return res, nil
}

// remoteShard runs one shard on its primary host over the peer's API.
func (n *Node) remoteShard(ctx context.Context, rank int, shard solver.Spec) (*solver.Result, error) {
	c := n.clients[rank]
	info, err := c.SubmitIdempotent(ctx, shard, key(shard)+"-r"+strconv.Itoa(rank))
	if err != nil {
		return nil, err
	}
	id := info.ID // Await returns (nil, err) on error; keep the ID for cancellation
	info, err = c.Await(ctx, id)
	if err != nil {
		// Cancellation propagates best-effort; the peer's shard must not
		// run on after the owner is gone.
		if ctx.Err() != nil {
			cctx, cancel := context.WithTimeout(context.Background(), n.cfg.PushTimeout)
			_, _ = c.Cancel(cctx, id)
			cancel()
		}
		return nil, err
	}
	if info.Error != "" {
		return nil, fmt.Errorf("federation: remote shard %s on %s failed: %s", info.ID, n.peers[rank], info.Error)
	}
	return info.Result, nil
}

func key(shard solver.Spec) string { return shard.Params.FedKey }
