package dsweep

import "time"

// FastFaults returns o with the failure handling the fault-injection tests
// run with: a 1–5 ms backoff, and a worker declared dead after two
// consecutive failures, so that a failing worker dies before a healthy one
// has drained the queue.
func FastFaults(o Options) Options {
	o.retryBase, o.retryMax, o.workerFailLimit = time.Millisecond, 5*time.Millisecond, 2
	return o
}
