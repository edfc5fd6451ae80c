package bench

import (
	"fmt"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/metrics"
	"flexlog/internal/seq"
)

// laneAblation is one entry of the table of on/off ablations that share a
// method: for every load point and every mode, build the deployment with
// the mode's tweak, warm the workload up, snapshot, run, and report the
// modeled throughput (model.go); then, for the modes that ask for it, one
// lone closed-loop client under injected latency, where the mechanism
// under test cannot help and must not hurt. The entries are
// ablate-readpath, -writepath, -seq, -clientbatch and -obs, each declared
// next to the comment that explains what it measures.
type laneAblation struct {
	id, title, xHeader string
	unit               string // of the throughput series
	// total, when set, turns the table on its side: the x axis is the
	// mode, with one throughput series of this name (and one lone-client
	// series, named by the modes' lone field) instead of one per mode.
	total string
	modes []ablationMode
	loads []int // workers per modeled point; the x axis unless total is set
	// ops and loneOps are the measured operations per worker of a modeled
	// point and of the lone-client pass.
	ops, loneOps int

	// cluster is the deployment of the cluster-based entries (each mode's
	// tweak is applied to it); ordering, when set, builds an ordering-only
	// deployment for the given mode and worker count instead.
	cluster  clusterSpec
	ordering func(m ablationMode, workers int, lone bool) orderingSpec
	// workload creates the clients or picks the drivers and returns what
	// they repeat.
	workload func(f *fixture, m ablationMode, workers int, lone bool) (load, error)
	// model resolves which lane the model treats as parallel, and over how
	// many workers, for the deployment as built; nil charges everything
	// serially.
	model func(f *fixture) laneModel

	// observe, when set, looks at every finished modeled point while its
	// deployment is still up: it may record further series values at the
	// point's x, add notes to the report, or fail the run.
	observe func(p ablationPoint, record func(series, unit string, v float64)) (notes []string, err error)
	notes   []string
}

// ablationMode is one side of an ablation: a name and what it changes in
// the deployment's configuration.
type ablationMode struct {
	name        string
	lone        string                    // name of the lone-client latency series; "" skips the pass for this mode
	tweak       func(*core.ClusterConfig) // cluster-based entries
	seqTweak    func(*seq.Config)         // ablate-seq
	readPercent int                       // ablate-readpath's two mixes
}

// ablationPoint is one finished modeled point, its deployment still live.
type ablationPoint struct {
	f       *fixture
	mode    ablationMode
	workers int
	last    bool          // the largest load point
	rate    float64       // modeled operations per second
	wall    time.Duration // wall time of the measured phase
}

// seriesSet keeps series in order of first use.
type seriesSet []*metrics.Series

func (s *seriesSet) get(name, unit string) *metrics.Series {
	for _, have := range *s {
		if have.Name == name {
			return have
		}
	}
	*s = append(*s, metrics.NewSeries(name, unit))
	return (*s)[len(*s)-1]
}

// ablationRow is the experiments-table row of an entry, which is built
// anew for each run's configuration.
func ablationRow(id, title string, entry func(RunConfig) laneAblation) Experiment {
	return Experiment{id, title, func(cfg RunConfig) (*Report, error) {
		a := entry(cfg)
		a.id = id
		return a.run()
	}}
}

func (a laneAblation) build(m ablationMode, workers int, lone bool) (*fixture, error) {
	if a.ordering != nil {
		return newOrderingFixture(a.ordering(m, workers, lone))
	}
	spec := a.cluster
	spec.tweak = m.tweak
	return newClusterFixture(spec)
}

func (a laneAblation) run() (*Report, error) {
	var thr, lat, extra seriesSet
	notes := a.notes
	for _, workers := range a.loads {
		for _, m := range a.modes {
			series, x := m.name, fmt.Sprint(workers)
			if a.total != "" {
				series, x = a.total, m.name
			}
			err := a.point(m, workers, func(p ablationPoint) error {
				thr.get(series, a.unit).Add(x, p.rate/1e3)
				if a.observe == nil {
					return nil
				}
				more, err := a.observe(p, func(series, unit string, v float64) { extra.get(series, unit).Add(x, v) })
				notes = append(notes, more...)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("%s %s/%d: %w", a.id, m.name, workers, err)
			}
		}
	}
	for _, m := range a.modes {
		if m.lone == "" {
			continue
		}
		mean, err := loneLatency(a.loneOps,
			func() (*fixture, error) { return a.build(m, 1, true) },
			func(f *fixture) (load, error) { return a.workload(f, m, 1, true) })
		if err != nil {
			return nil, fmt.Errorf("%s %s lone client: %w", a.id, m.name, err)
		}
		x := "1"
		if a.total != "" {
			x = m.name
		}
		lat.get(m.lone, "usec").Add(x, float64(mean)/1e3)
	}
	return &Report{ID: a.id, Title: a.title, XHeader: a.xHeader, Series: append(append(thr, lat...), extra...), Notes: notes}, nil
}

// point runs one modeled point and hands the result to report while the
// deployment is still up.
func (a laneAblation) point(m ablationMode, workers int, report func(ablationPoint) error) error {
	f, err := a.build(m, workers, false)
	if err != nil {
		return err
	}
	defer f.stop()
	l, err := a.workload(f, m, workers, false)
	if err != nil {
		return err
	}
	var model laneModel
	if a.model != nil {
		model = a.model(f)
	}
	rate, wall, err := f.modeledRate(workers, a.ops, l, model)
	if err != nil {
		return err
	}
	return report(ablationPoint{f: f, mode: m, workers: workers, last: workers == a.loads[len(a.loads)-1], rate: rate, wall: wall})
}
