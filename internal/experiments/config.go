package experiments

import (
	"fmt"
	"slices"
	"strings"

	"fedclust/internal/core"
	"fedclust/internal/data"
	"fedclust/internal/fl"
	"fedclust/internal/methods"
)

// DatasetNames are the three Table-I datasets, in the paper's column order.
var DatasetNames = []string{"cifar10", "fmnist", "svhn"}

// MethodNames are the Table-I methods, in the paper's row order.
var MethodNames = []string{"FedAvg", "FedProx", "CFL", "IFCA", "PACFL", "FedClust"}

// DatasetConfig returns the synthetic stand-in for a named dataset.
func DatasetConfig(name string, seed uint64) data.SynthConfig {
	switch name {
	case "cifar10":
		return data.SynthCIFAR10(seed)
	case "fmnist":
		return data.SynthFMNIST(seed)
	case "svhn":
		return data.SynthSVHN(seed)
	default:
		panic(fmt.Sprintf("experiments: unknown dataset %q", name))
	}
}

// Workload parameterizes one federated run: the dataset, the client
// population, and the training schedule.
type Workload struct {
	Dataset   string
	Clients   int
	Alpha     float64 // Dirichlet concentration (Table I uses 0.1)
	Rounds    int
	Epochs    int
	BatchSize int
	LR        float64
	Momentum  float64
	// WidthScale narrows LeNet-5 (1 = faithful architecture).
	WidthScale float64
	// TrainPerClass/TestPerClass override the preset sizes when > 0.
	TrainPerClass, TestPerClass int
	// SepScale multiplies the dataset's class separation (default 1).
	// Larger workloads (more data, more rounds) make any fixed synthetic
	// distribution easier; the paper-scale workload compensates so the
	// absolute accuracy bands stay near the paper's Table I.
	SepScale float64
	// IFCAK is the predefined cluster count IFCA requires.
	IFCAK int
	// FedProxMu is the proximal coefficient.
	FedProxMu float64
}

// PaperWorkload is the Table-I setting at reproduction scale: 20 clients,
// Dir(0.1), LeNet-5.
func PaperWorkload(dataset string) Workload {
	return Workload{
		Dataset: dataset, Clients: 20, Alpha: 0.1,
		Rounds: 25, Epochs: 2, BatchSize: 32, LR: 0.02, Momentum: 0.5,
		WidthScale: 0.5, IFCAK: 4, FedProxMu: 0.1, SepScale: 0.42,
	}
}

// QuickWorkload is a reduced setting for benchmarks and CI: fewer clients,
// samples, and rounds, same structure.
func QuickWorkload(dataset string) Workload {
	w := PaperWorkload(dataset)
	w.Clients = 10
	w.Rounds = 8
	w.Epochs = 1
	w.TrainPerClass = 120
	w.TestPerClass = 40
	w.IFCAK = 3
	w.SepScale = 1
	return w
}

// workloadDataset resolves a workload's dataset configuration, applying
// per-workload size and difficulty overrides.
func workloadDataset(w Workload, seed uint64) data.SynthConfig {
	cfg := DatasetConfig(w.Dataset, seed)
	if w.TrainPerClass > 0 {
		cfg.TrainPerClass = w.TrainPerClass
	}
	if w.TestPerClass > 0 {
		cfg.TestPerClass = w.TestPerClass
	}
	if w.SepScale > 0 {
		cfg.ClassSep *= w.SepScale
	}
	return cfg
}

// NewTrainer instantiates a method by Table-I name with the workload's
// hyperparameters.
func NewTrainer(name string, w Workload) fl.Trainer {
	t := trainer(name, w)
	if t == nil {
		panic(fmt.Sprintf("experiments: unknown method %q", name))
	}
	return t
}

func trainer(name string, w Workload) fl.Trainer {
	switch name {
	case "FedAvg":
		return methods.FedAvg{}
	case "FedProx":
		return methods.FedProx{Mu: w.FedProxMu}
	case "CFL":
		return methods.CFL{}
	case "IFCA":
		return methods.IFCA{K: w.IFCAK}
	case "PACFL":
		return methods.PACFL{}
	case "FedClust":
		return &core.FedClust{}
	case "FedAvgStale":
		return methods.FedAvgStale{}
	case "FedBuff":
		return methods.FedBuff{}
	default:
		return nil
	}
}

// checkNames reports a dataset DatasetConfig would panic on, or a method
// NewTrainer would, so a typo fails before training starts.
func checkNames(datasets, methods []string) error {
	for _, n := range datasets {
		if !slices.Contains(DatasetNames, n) {
			return fmt.Errorf("experiments: unknown dataset %q (want %s)", n, strings.Join(DatasetNames, ", "))
		}
	}
	for _, n := range methods {
		if trainer(n, Workload{}) == nil {
			return fmt.Errorf("experiments: unknown method %q", n)
		}
	}
	return nil
}
