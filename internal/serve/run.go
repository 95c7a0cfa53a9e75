package serve

import "nocsprint/internal/core"

// RunExperiment is the default RunFunc, a delegate to the core experiment
// registry: the CLI's -json mode runs the same entry with the same -fast
// shaping, so a daemon job's result bytes match the CLI's for the same spec.
func RunExperiment(spec JobSpec, sim core.NetSimParams) (any, error) {
	return core.RunExperiment(spec.Experiment, sim, spec.Fast)
}
