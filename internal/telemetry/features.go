// Package telemetry defines the feature catalog of the study (Table 2 of
// the paper: 7 resource-utilization counters and 22 query-plan statistics),
// the experiment data model produced by the simulated DBMS, and the
// sampling utilities (systematic sub-sampling, min-max normalization) the
// pipeline applies before feature selection and similarity computation.
package telemetry

import "fmt"

// Kind distinguishes the two telemetry sources of the study.
type Kind int

const (
	// Resource features are sampled as a time series while the workload
	// runs (perf-style counters).
	Resource Kind = iota
	// Plan features are per-query optimizer/plan statistics (SET
	// STATISTICS XML-style capture).
	Plan
)

func (k Kind) String() string {
	switch k {
	case Resource:
		return "resource"
	case Plan:
		return "plan"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Feature identifies one of the 29 telemetry features.
type Feature int

// Resource-utilization features (Table 2, left column).
const (
	CPUUtilization Feature = iota
	CPUEffective
	MemUtilization
	IOPSTotal
	ReadWriteRatio
	LockReqAbs
	LockWaitAbs

	// Query-plan statistics (Table 2, right columns).
	StatementEstRows
	StatementSubTreeCost
	CompileCPU
	TableCardinality
	SerialDesiredMemory
	SerialRequiredMemory
	MaxCompileMemory
	EstimateRebinds
	EstimateRewinds
	EstimatedPagesCached
	EstimatedAvailableDOP
	EstimatedAvailableMemoryGrant
	CachedPlanSize
	AvgRowSize
	CompileMemory
	EstimateRows
	EstimateIO
	CompileTime
	GrantedMemory
	EstimateCPU
	MaxUsedMemory
	EstimatedRowsRead

	numFeatures
)

// NumFeatures is the total feature count (7 resource + 22 plan).
const NumFeatures = int(numFeatures)

// NumResourceFeatures is the number of resource-utilization counters.
const NumResourceFeatures = 7

// NumPlanFeatures is the number of query-plan statistics.
const NumPlanFeatures = NumFeatures - NumResourceFeatures

var featureNames = [...]string{
	CPUUtilization:                "CPU_UTILIZATION",
	CPUEffective:                  "CPU_EFFECTIVE",
	MemUtilization:                "MEM_UTILIZATION",
	IOPSTotal:                     "IOPS_TOTAL",
	ReadWriteRatio:                "READ_WRITE_RATIO",
	LockReqAbs:                    "LOCK_REQ_ABS",
	LockWaitAbs:                   "LOCK_WAIT_ABS",
	StatementEstRows:              "StatementEstRows",
	StatementSubTreeCost:          "StatementSubTreeCost",
	CompileCPU:                    "CompileCPU",
	TableCardinality:              "TableCardinality",
	SerialDesiredMemory:           "SerialDesiredMemory",
	SerialRequiredMemory:          "SerialRequiredMemory",
	MaxCompileMemory:              "MaxCompileMemory",
	EstimateRebinds:               "EstimateRebinds",
	EstimateRewinds:               "EstimateRewinds",
	EstimatedPagesCached:          "EstimatedPagesCached",
	EstimatedAvailableDOP:         "EstimatedAvailableDegreeOfParallelism",
	EstimatedAvailableMemoryGrant: "EstimatedAvailableMemoryGrant",
	CachedPlanSize:                "CachedPlanSize",
	AvgRowSize:                    "AvgRowSize",
	CompileMemory:                 "CompileMemory",
	EstimateRows:                  "EstimateRows",
	EstimateIO:                    "EstimateIO",
	CompileTime:                   "CompileTime",
	GrantedMemory:                 "GrantedMemory",
	EstimateCPU:                   "EstimateCPU",
	MaxUsedMemory:                 "MaxUsedMemory",
	EstimatedRowsRead:             "EstimatedRowsRead",
}

// String returns the feature's name as it appears in the paper.
func (f Feature) String() string {
	if f < 0 || int(f) >= NumFeatures {
		return fmt.Sprintf("Feature(%d)", int(f))
	}
	return featureNames[f]
}

// Kind reports whether f is a resource counter or a plan statistic.
func (f Feature) Kind() Kind {
	if int(f) < NumResourceFeatures {
		return Resource
	}
	return Plan
}

// AllFeatures returns all 29 features in catalog order.
func AllFeatures() []Feature {
	out := make([]Feature, NumFeatures)
	for i := range out {
		out[i] = Feature(i)
	}
	return out
}

// ResourceFeatures returns the 7 resource-utilization features.
func ResourceFeatures() []Feature {
	out := make([]Feature, NumResourceFeatures)
	for i := range out {
		out[i] = Feature(i)
	}
	return out
}

// PlanFeatures returns the 22 query-plan statistics features.
func PlanFeatures() []Feature {
	out := make([]Feature, NumPlanFeatures)
	for i := range out {
		out[i] = Feature(i + NumResourceFeatures)
	}
	return out
}

// featuresByName indexes the catalog by name. Decoding a target document
// resolves every resource and plan statistic name through it, a few
// thousand lookups per document.
var featuresByName = func() map[string]Feature {
	m := make(map[string]Feature, NumFeatures)
	for i, n := range featureNames {
		m[n] = Feature(i)
	}
	return m
}()

// FeatureByName resolves a feature by its paper name. The second return
// value reports whether the name was found.
func FeatureByName(name string) (Feature, bool) {
	f, ok := featuresByName[name]
	return f, ok
}

// FeatureNames maps a feature slice to its display names.
func FeatureNames(fs []Feature) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.String()
	}
	return out
}
