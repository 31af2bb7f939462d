// Package memsim is the paper's memcached experiment (§2.3, Figures
// 12-13): an in-memory store whose service time is so small (~0.18 ms)
// that the client-side cost of a second copy — at least 9% of the mean
// service time, by the stub experiment — cancels redundancy's benefit.
//
// It is the §2.1 queueing model, queueing.Run, with the paper's
// measurements, all in milliseconds. The package adds only those
// constants and memcached's service law; it has no queue of its own.
package memsim

import (
	"fmt"
	"math/rand"

	"redundancy/internal/dist"
	"redundancy/internal/queueing"
	"redundancy/internal/stats"
)

const (
	servers       = 4      // memcached nodes
	ServiceMean   = 0.18   // mean server service time
	serviceCV     = 0.25   // "not very variable"
	outlierProb   = 0.0005 // share of requests slowed at the server...
	outlierFactor = 20     // ...by this factor: Figure 13's rare multi-ms tail
	ClientBase    = 0.08   // client processing per request: the 1-copy stub's mean
	clientExtra   = 0.016  // added client latency of a replicated request: the stub delta
	recvPerCopy   = 0.008  // kernel/NIC receive of the losing response
)

// Stub is Figure 13's stub arm for copies (1 or 2): the server call is a
// no-op, so a request costs the client's processing alone, and no loser
// arrives to be received.
func Stub(copies int) float64 {
	if copies == 2 {
		return ClientBase + clientExtra
	}
	return ClientBase
}

// service is memcached's service time: a lognormal, multiplied by
// outlierFactor with probability outlierProb.
type service struct{ base dist.LogNormal }

var memcached = service{dist.LogNormalMeanCV(ServiceMean, serviceCV)}

func (s service) Sample(r *rand.Rand) float64 {
	t := s.base.Sample(r)
	if r.Float64() < outlierProb {
		t *= outlierFactor
	}
	return t
}

func (s service) Mean() float64 {
	return s.base.Mean() * (1 + outlierProb*(outlierFactor-1))
}

func (s service) Variance() float64 {
	m := s.base.Mean()
	second := (s.base.Variance() + m*m) * (1 + outlierProb*(outlierFactor*outlierFactor-1))
	return second - s.Mean()*s.Mean()
}

// Run runs the model with copies (1 or 2) at per-server load and returns
// the response times less ClientBase, which every request pays: add it to
// what is reported. A replicated request's extra client cost and its
// loser's receive are the model's ClientOverhead.
func Run(copies int, load float64, requests int, seed int64) (*stats.Sample, error) {
	if copies != 1 && copies != 2 {
		return nil, fmt.Errorf("memsim: copies must be 1 or 2, got %d", copies)
	}
	return queueing.Run(queueing.Config{
		Servers: servers, Copies: copies, Load: load, Service: memcached,
		ClientOverhead: clientExtra + recvPerCopy,
		Requests:       requests, Seed: seed,
	})
}
