package eval

// Option tunes one evaluation call. The zero configuration — the
// generation-stamped cache and any registered maintainer consulted — is what
// every caller gets without options, and is byte-identical in output to a
// cold evaluation: options only trade time for resources.
type Option func(*config)

// config is the resolved per-call evaluation configuration.
type config struct {
	noCache bool // bypass the result/holds cache entirely
}

// NoCache makes the call bypass the evaluation cache AND any registered
// incremental-view maintainer: nothing is looked up and nothing is stored,
// the call always enumerates cold. Benchmarks and the differential harness
// use it to measure (and cross-check against) cold evaluation; it is also
// the escape hatch for callers that mutate the database outside db.Store's
// mutation methods (none in this repository do).
func NoCache() Option {
	return func(c *config) { c.noCache = true }
}

// resolve folds the options into a config.
func resolve(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return c
}
