package health

import "womcpcm/internal/metrics"

// Collect returns the womd_alert_* families GET /metrics serves.
func (e *Engine) Collect() []metrics.Family {
	// One series per firing alert; with nothing firing the family has no
	// samples and so no HELP/TYPE header either.
	live := metrics.Family{Name: "womd_alert_firing", Help: "One series per firing alert.", Type: "gauge"}
	var pending, firing float64
	e.mu.Lock()
	for _, a := range e.active {
		if a.state == StateFiring {
			firing++
			live.Samples = append(live.Samples,
				metrics.Sample{Labels: metrics.Labels("rule", a.rule, "subject", a.subject), Value: 1})
		} else {
			pending++
		}
	}
	evals, pendingT, firedT, resolvedT, flapsT :=
		e.evals, e.pendingTotal, e.firedTotal, e.resolvedTotal, e.flapsTotal
	e.mu.Unlock()

	metrics.SortByLabels(live.Samples)
	state := func(st string, v float64) metrics.Sample {
		return metrics.Sample{Labels: metrics.Labels("state", st), Value: v}
	}
	return []metrics.Family{
		{Name: "womd_alerts", Help: "Active alerts by lifecycle state.", Type: "gauge",
			Samples: []metrics.Sample{state("pending", pending), state("firing", firing)}},
		{Name: "womd_alert_transitions_total", Help: "Alert lifecycle transitions since start.", Type: "counter",
			Samples: []metrics.Sample{state("pending", float64(pendingT)), state("firing", float64(firedT)),
				state("resolved", float64(resolvedT))}},
		metrics.Counter("womd_alert_evaluations_total", "Rule evaluation passes.", float64(evals)),
		metrics.Counter("womd_alert_flaps_total", "Pending alerts that cleared before firing.", float64(flapsT)),
		live,
	}
}
