package main

// Frozen op counts of one repetition at scale 1, and the size of one timing
// segment in each workload. A run makes reps repetitions (cpdbReps and
// partyReps for the two workloads with the costliest repetitions), sized so
// that the run measures about run_seconds of work on the 2-vCPU reference
// box; -seconds (and -quick) scale the counts, never the workload list.
// Fixed work, not fixed time: the answer digests and every exact metric are
// functions of (seed, scale) alone. Every count is a whole number of
// segments, and a segment is about 50 ms of work with the same mix of
// operations as every other segment of its lane.
const (
	// tpcds_step: trace steps fed one Advance at a time, Count every 5th.
	// A segment holds 10 view updates (T = 10) and 20 counts.
	tpcdsStepSteps  = 2000
	tpcdsCountEvery = 5
	tpcdsSegment    = 50 // steps

	// tpcds_batch: AdvanceBatch calls of tpcdsBatchLen steps, Count after
	// each. 5 calls span 4 view updates, so a segment is a multiple of 5.
	tpcdsBatchCalls   = 600
	tpcdsBatchLen     = 8
	tpcdsBatchSegment = 20 // calls

	// cpdb_query: steps preloaded in set-up, then timed ops in blocks of 20:
	// 9 Count, 9 CountWhere and 2 Advance in seeded order (45/45/10).
	cpdbPreloadSteps = 6000
	cpdbOps          = 8000
	cpdbBlock        = 20
	cpdbSegment      = 4 * cpdbBlock // ops

	// serve_http: clients x views per client, and cycles per view of the
	// fixed 12-request cycle (8 advance, 1 advance-batch of 8, 2 GET count,
	// 1 POST count).
	serveClients        = 2
	serveViewsPerClient = 2
	serveCyclesPerView  = 640
	serveCheckpoint     = 2000
	serveSegment        = 8 // cycles (of both of the client's views) per client segment
	// serveSystemSegment is the system lane's segment, in requests completed
	// by either client: 25 whole cycles, so every segment has the cycle's mix.
	serveSystemSegment = 25 * cycleRequests

	// party_tls: party.Run sessions, each over its own connection pair and
	// each one segment, and the protocol steps per session; then the width of
	// the GMW Batcher sort on a fresh connection pair, timed in segments of
	// partyGateSegment compare-exchanges.
	partySessions    = 48
	partySteps       = 350
	partySortWords   = 64
	partyGateSegment = 16
)

// clients is the most goroutines/connections any workload drives at once.
const clients = 2
