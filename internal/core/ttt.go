package core

import (
	"fmt"
)

// TTTResult is the outcome of a time-to-train run: the MLPerf-style metric
// the paper planned to adopt ("we plan to update our suite using the
// time-to-train metric proposed by the developers of MLPerf").
type TTTResult struct {
	Workload string
	Dataset  string
	// TargetLoss is the convergence threshold.
	TargetLoss float64
	// Epochs is the number of epochs run (== MaxEpochs when not converged).
	Epochs int
	// Converged reports whether the target was reached within MaxEpochs.
	Converged bool
	// SimSeconds is the simulated GPU time spent (kernels + exposed launch
	// overhead + transfers) until convergence or cutoff.
	SimSeconds float64
	// FinalLoss is the last epoch's mean loss.
	FinalLoss float64
	// LossCurve holds every epoch's loss.
	LossCurve []float64
}

// TimeToTrain trains the configured workload until its epoch loss falls to
// targetLoss or maxEpochs elapse, and reports the simulated time consumed.
func TimeToTrain(cfg RunConfig, targetLoss float64, maxEpochs int) (TTTResult, error) {
	if maxEpochs <= 0 {
		return TTTResult{}, fmt.Errorf("core: TimeToTrain requires positive maxEpochs, got %d", maxEpochs)
	}
	cfg.Epochs = maxEpochs
	cfg.StopWhen = func(loss float64) bool { return loss <= targetLoss }
	r, err := Run(cfg)
	if err != nil {
		return TTTResult{}, err
	}
	res := TTTResult{
		Workload:   r.Workload,
		Dataset:    r.Dataset,
		TargetLoss: targetLoss,
		Epochs:     len(r.Losses),
		FinalLoss:  r.Losses[len(r.Losses)-1],
		LossCurve:  r.Losses,
	}
	res.Converged = res.FinalLoss <= targetLoss
	for _, s := range r.EpochSeconds {
		res.SimSeconds += s
	}
	return res, nil
}
