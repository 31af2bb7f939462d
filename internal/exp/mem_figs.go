package exp

import (
	"redundancy/internal/memsim"
	"redundancy/internal/stats"
)

// Fig12 reproduces Figure 12: memcached response time vs load, 1 vs 2
// copies. memsim's samples lack the client base every request pays, so
// it is added to each reported figure.
func Fig12(o Options) ([]*Table, error) {
	requests := o.scale(300000)
	t := &Table{
		Title: "Figure 12: memcached, response time vs load",
		Caption: "client-side overhead (>=9% of the 0.18 ms service time) cancels the mean's benefit: " +
			"2 copies are within 1% either way at load 0.1 and worse from 0.2",
		Columns: []string{"load", "mean 1c (ms)", "mean 2c (ms)", "p99.9 1c (ms)", "p99.9 2c (ms)"},
	}
	for _, load := range []float64{0.1, 0.2, 0.3, 0.4, 0.45} {
		var m [3]*stats.Sample
		for _, copies := range []int{1, 2} {
			s, err := memsim.Run(copies, load, requests, o.Seed)
			if err != nil {
				return nil, err
			}
			m[copies] = s
		}
		t.Add(load,
			memsim.ClientBase+m[1].Mean(), memsim.ClientBase+m[2].Mean(),
			memsim.ClientBase+m[1].P999(), memsim.ClientBase+m[2].P999())
	}
	return []*Table{t}, nil
}

// Fig13 reproduces Figure 13: stub vs real response-time CCDFs at 0.1%
// load, quantifying client-side overhead.
func Fig13(o Options) ([]*Table, error) {
	requests := o.scale(300000)
	var measured [3]*stats.Sample
	for _, copies := range []int{1, 2} {
		s, err := memsim.Run(copies, 0.001, requests, o.Seed)
		if err != nil {
			return nil, err
		}
		measured[copies] = s
	}
	stubAbove := func(copies int, th float64) float64 {
		if memsim.Stub(copies) > th {
			return 1
		}
		return 0
	}
	ccdf := &Table{
		Title:   "Figure 13: stub vs real CCDF at 0.1% load",
		Caption: "the stub isolates client-side latency; its replicated-minus-single delta is the overhead",
		Columns: []string{"threshold (ms)", "1c real", "2c real", "1c stub", "2c stub"},
	}
	for _, th := range stats.LogSpace(0.02, 2, 8) {
		ccdf.Add(th,
			measured[1].FractionAbove(th-memsim.ClientBase), measured[2].FractionAbove(th-memsim.ClientBase),
			stubAbove(1, th), stubAbove(2, th))
	}
	delta := memsim.Stub(2) - memsim.Stub(1)
	summary := &Table{
		Title:   "Figure 13 summary",
		Columns: []string{"arm", "mean (ms)"},
	}
	summary.Add("1 copy, real", memsim.ClientBase+measured[1].Mean())
	summary.Add("2 copies, real", memsim.ClientBase+measured[2].Mean())
	summary.Add("1 copy, stub", memsim.Stub(1))
	summary.Add("2 copies, stub", memsim.Stub(2))
	summary.Add("stub delta (client overhead, ms)", delta)
	summary.Add("overhead / mean service", delta/memsim.ServiceMean)
	return []*Table{ccdf, summary}, nil
}
