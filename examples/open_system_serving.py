"""Open-system serving: Poisson arrivals, dynamic batching, tail latency.

The closed-system examples (``batch_serving.py``) measure makespan: all
work is present at t=0 and the question is how fast the accelerator
drains it. A cloud FHE service is an *open* system — requests arrive
over time, queue, and each one cares about its own latency. This
example drives :mod:`repro.serve` at a fixed arrival rate and shows
what dynamic batching does to the latency distribution:

- at low load, batching is irrelevant (the batcher is work-conserving
  and admits each request the moment the accelerator idles);
- past saturation, batch=1 caps throughput at the serial request rate
  while batch=8 overlaps independent requests across the operator
  cores, raising the knee and cutting p99.

Run:  python examples/open_system_serving.py
"""

from repro.serve import (
    BatchPolicy,
    ClusterPolicy,
    ClusterSimulator,
    PoissonArrivals,
)

REQUESTS = 64
SEED = 7


def serve(rate: float, max_batch: int):
    # One warm accelerator, no key movement.
    sim = ClusterSimulator(
        policy=ClusterPolicy(instances=1, key_upload_bytes=0),
        batch_policy=BatchPolicy(max_batch_size=max_batch),
    )
    arrivals = PoissonArrivals(rate=rate, count=REQUESTS, seed=SEED)
    return sim.run("keyswitch", arrivals, seed=SEED)


def report(label: str, result) -> None:
    s = result.summary()
    print(f"  {label:12s} throughput {s['throughput_rps']:7.1f} req/s  "
          f"p50 {s['latency_p50_seconds'] * 1e3:7.2f} ms  "
          f"p99 {s['latency_p99_seconds'] * 1e3:7.2f} ms  "
          f"max queue {s['max_queue_depth']}")


def main() -> None:
    print("open-system serving: keyswitch mix, "
          f"{REQUESTS} requests, seed {SEED}")

    print("\n--- light load (50 req/s offered) ---")
    light_1 = serve(rate=50, max_batch=1)
    light_8 = serve(rate=50, max_batch=8)
    report("batch=1", light_1)
    report("batch=8", light_8)
    print("Under light load both policies keep the queue near empty;")
    print("batching cannot help because there is nothing to batch.")

    print("\n--- overload (600 req/s offered) ---")
    heavy_1 = serve(rate=600, max_batch=1)
    heavy_8 = serve(rate=600, max_batch=8)
    report("batch=1", heavy_1)
    report("batch=8", heavy_8)
    gain = (heavy_8.throughput_rps / heavy_1.throughput_rps - 1) * 100
    print(f"Past saturation, batch=8 serves {gain:.0f}% more load:")
    print("batched requests are independent streams, so one request's")
    print("HAdd runs on the MA array while another's keyswitch holds")
    print("NTT/MM — the operator-reuse overlap the paper argues for.")

    # The claims the prose makes, checked: batching beats serial past
    # saturation on both throughput and tail latency.
    assert heavy_8.throughput_rps > heavy_1.throughput_rps
    assert (heavy_8.latency_percentile(0.99)
            <= heavy_1.latency_percentile(0.99))
    for result in (light_1, light_8, heavy_1, heavy_8):
        assert result.completed == REQUESTS

    print("\nconclusion: size the batcher for the overload regime; it")
    print("costs nothing at light load and moves the knee at heavy load.")


if __name__ == "__main__":
    main()
