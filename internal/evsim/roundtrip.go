package evsim

import (
	"math/rand"
	"time"
)

// RTConfig configures a round-trip experiment.
type RTConfig struct {
	Model CostModel
	// N is the number of round trips.
	N int
	// Rate, if non-zero, issues requests open-loop at this many
	// round-trips per second (Figure 5's x axis). Zero means closed
	// loop: each request is issued the moment the previous reply is
	// delivered (Figure 4's dashed back-to-back case) or after Gap.
	Rate float64
	// Gap adds idle time between a reply and the next request in
	// closed-loop mode, modelling an application that paces itself
	// (the paper's "fewer than 1650 roundtrips per second" regime).
	Gap time.Duration
	// Payload is the user-data size (the paper uses 8 bytes).
	Payload int
}

// RTResult summarizes a round-trip experiment.
type RTResult struct {
	Latency   sample // per round trip, request issue → reply delivered
	OneWay    sample // request issue → request delivered at server
	Duration  time.Duration
	Achieved  float64 // completed round-trips per second
	FirstRTT  time.Duration
	PostDone  time.Duration // when the last lazy work finished
	GCPerRecv bool
}

// RoundTrips simulates N request/reply exchanges between a client and a
// server running the accelerated stack, reproducing the pipeline of the
// paper's Figure 4:
//
//	client: pre-send → U-Net (35 µs) → server: deliver → server: pre-send
//	(reply) → U-Net → client: deliver; post-sending, post-delivery and
//	garbage collection run lazily after the deliveries, gating the *next*
//	operation in the same direction only (§3.1).
func RoundTrips(cfg RTConfig) RTResult {
	cm := cfg.Model
	rng := rand.New(rand.NewSource(cm.Seed))
	client := &CPU{Name: "client"}
	server := &CPU{Name: "server"}
	var res RTResult
	res.GCPerRecv = cm.GCEveryReceive

	wire := cm.wire(cfg.Payload)
	var (
		// An operation needs the immediately preceding same-direction
		// post phase's *predict* part (it computes the header the fast
		// path will use, §3.2) and the *full* post phase of the
		// operation before that: post-processing may overlap one
		// message flight ("between the actual sending and delivery",
		// §5) but no more, which bounds the lazy backlog and produces
		// the paper's saturation points.
		cPredSend, cPredDeliver *Lazy
		sPredSend, sPredDeliver *Lazy
		// One-round-older full post phases and collections: the most
		// recent ones may still be in flight, these must be done.
		cBulkSendP, cBulkDeliverP *Lazy
		sBulkSendP, sBulkDeliverP *Lazy
		cBulkSend, cBulkDeliver   *Lazy
		sBulkSend, sBulkDeliver   *Lazy
		cGC, cGCP, sGC, sGCP      *Lazy
		prevReply                 time.Duration // when the previous reply was delivered
		endOfRun                  time.Duration
	)
	for r := 0; r < cfg.N; r++ {
		// Request issue time.
		var issue time.Duration
		if cfg.Rate > 0 {
			issue = time.Duration(float64(r) / cfg.Rate * float64(time.Second))
			if issue < 0 {
				issue = 0
			}
		} else {
			issue = prevReply + cfg.Gap
		}

		// Client pre-send; §3.1 forces the previous send prediction
		// first, and allows at most one full post-sending (plus its
		// collection) to remain outstanding.
		var sendDone time.Duration
		if cm.StrictDrain {
			sendDone = client.Exec(issue, cm.PreSend, cPredSend, cBulkSend)
		} else {
			sendDone = client.Exec(issue, cm.PreSend, cBulkSendP, cGCP, cPredSend)
		}

		// Network.
		arrive := sendDone + wire + cm.NetLatency

		// Server delivery; gated by the server's previous delivery
		// prediction.
		var servDeliver time.Duration
		if cm.StrictDrain {
			servDeliver = server.Exec(arrive, cm.Deliver, sPredDeliver, sBulkDeliver)
		} else {
			servDeliver = server.Exec(arrive, cm.Deliver, sBulkDeliverP, sPredDeliver)
		}
		res.OneWay.add(servDeliver - issue)

		// Server replies immediately (before its post-processing —
		// the heart of Figure 4), then queues its lazy work.
		var replyDone time.Duration
		if cm.StrictDrain {
			replyDone = server.Exec(servDeliver, cm.PreSend, sPredSend, sBulkSend)
		} else {
			replyDone = server.Exec(servDeliver, cm.PreSend, sBulkSendP, sGCP, sPredSend)
		}
		sBulkSendP, sBulkDeliverP, sGCP = sBulkSend, sBulkDeliver, sGC
		sPredSend = server.AddLazy(replyDone, cm.PredictSend, "predict-send")
		sBulkSend = server.AddLazy(replyDone, cm.bulkSend(), "postsend")
		sPredDeliver = server.AddLazy(replyDone, cm.PredictDeliver, "predict-deliver")
		sBulkDeliver = server.AddLazy(replyDone, cm.bulkDeliver(), "postdeliver")
		sGC = server.AddLazy(replyDone, cm.gcAt(rng, r), "gc")

		// Reply travels back.
		replyArrive := replyDone + wire + cm.NetLatency
		var clientDeliver time.Duration
		if cm.StrictDrain {
			clientDeliver = client.Exec(replyArrive, cm.Deliver, cPredDeliver, cBulkDeliver)
		} else {
			clientDeliver = client.Exec(replyArrive, cm.Deliver, cBulkDeliverP, cPredDeliver)
		}

		// Client lazy work: post-send of the request, post-delivery
		// of the reply, then a collection.
		cBulkSendP, cBulkDeliverP, cGCP = cBulkSend, cBulkDeliver, cGC
		cPredSend = client.AddLazy(clientDeliver, cm.PredictSend, "predict-send")
		cBulkSend = client.AddLazy(clientDeliver, cm.bulkSend(), "postsend")
		cPredDeliver = client.AddLazy(clientDeliver, cm.PredictDeliver, "predict-deliver")
		cBulkDeliver = client.AddLazy(clientDeliver, cm.bulkDeliver(), "postdeliver")
		cGC = client.AddLazy(clientDeliver, cm.gcAt(rng, r), "gc")

		rtt := clientDeliver - issue
		res.Latency.add(rtt)
		if r == 0 {
			res.FirstRTT = rtt
		}
		prevReply = clientDeliver
		if clientDeliver > endOfRun {
			endOfRun = clientDeliver
		}
	}

	cFlush := client.Flush(endOfRun)
	sFlush := server.Flush(endOfRun)
	res.PostDone = maxDur(cFlush, sFlush)
	res.Duration = endOfRun
	if endOfRun > 0 {
		res.Achieved = float64(cfg.N) / endOfRun.Seconds()
	}
	return res
}

// FirstRoundTripTimeline simulates a single round trip and returns the
// annotated Figure 4 timeline, including the lazy completion events.
func FirstRoundTripTimeline(cm CostModel) (*timeline, RTResult) {
	rng := rand.New(rand.NewSource(cm.Seed))
	client := &CPU{Name: "client"}
	server := &CPU{Name: "server"}
	tl := &timeline{}
	wire := cm.wire(8)

	issue := time.Duration(0)
	tl.add(issue, "client", "SEND()")
	sendDone := client.Exec(issue, cm.PreSend)
	tl.add(sendDone, "client", "to U-Net")
	arrive := sendDone + wire + cm.NetLatency
	servDeliver := server.Exec(arrive, cm.Deliver)
	tl.add(servDeliver, "server", "DELIVER()")
	tl.add(servDeliver, "server", "SEND()")
	replyDone := server.Exec(servDeliver, cm.PreSend)
	sPS := server.AddLazy(replyDone, cm.postSend(), "postsend")
	sPD := server.AddLazy(replyDone, cm.postDeliver(), "postdeliver")
	sGC := server.AddLazy(replyDone, cm.gc(rng), "gc")
	replyArrive := replyDone + wire + cm.NetLatency
	clientDeliver := client.Exec(replyArrive, cm.Deliver)
	tl.add(clientDeliver, "client", "DELIVER()")
	cPS := client.AddLazy(clientDeliver, cm.postSend(), "postsend")
	cPD := client.AddLazy(clientDeliver, cm.postDeliver(), "postdeliver")
	cGC := client.AddLazy(clientDeliver, cm.gc(rng), "gc")

	client.Flush(clientDeliver)
	server.Flush(clientDeliver)
	tl.add(sPS.DoneAt(), "server", "POSTSEND DONE")
	tl.add(sPD.DoneAt(), "server", "POSTDELIVER DONE")
	if cm.GCEveryReceive {
		tl.add(sGC.DoneAt(), "server", "GARBAGE COLLECTED")
	}
	tl.add(cPS.DoneAt(), "client", "POSTSEND DONE")
	tl.add(cPD.DoneAt(), "client", "POSTDELIVER DONE")
	if cm.GCEveryReceive {
		tl.add(cGC.DoneAt(), "client", "GARBAGE COLLECTED")
	}

	var res RTResult
	res.FirstRTT = clientDeliver - issue
	res.Latency.add(res.FirstRTT)
	res.OneWay.add(servDeliver - issue)
	res.PostDone = maxDur(cGC.DoneAt(), sGC.DoneAt())
	res.Duration = clientDeliver
	res.GCPerRecv = cm.GCEveryReceive
	return tl, res
}

// MaxRoundTripRate runs a long closed-loop train and reports the
// sustainable round-trips per second and the mean latency at saturation
// (the paper's "pushed to its limits" dashed case: ~1900 rt/s with GC
// after every receive, ~6000 rt/s without).
func MaxRoundTripRate(cm CostModel, n int) (ratePerSec float64, meanLatency time.Duration) {
	res := RoundTrips(RTConfig{Model: cm, N: n})
	return res.Achieved, res.Latency.mean()
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
