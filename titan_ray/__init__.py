"""titan_ray — Ray-Data-native transcript quality-control engine.

Re-expresses the reference QC battery (metno/TITAN, see SURVEY.md) as
streaming Ray Data pipelines over Arrow batches.
"""


def tune_malloc() -> None:
    """Keep glibc from mmap'ing/munmap'ing every large numpy temporary.

    The vectorized scorers allocate tens-of-MB transients per batch; with the
    default dynamic mmap threshold each call triggers mmap+page-fault+munmap
    (+ cross-CPU TLB shootdowns), which measured ~60x slower under concurrent
    Ray workers on this VM. Raising the thresholds makes the heap grow once
    and stay warm.
    """
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
        libc.mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
    except Exception:
        pass


def tune_ray_data() -> None:
    """Let each Ray Data operator run as many tasks as the shared CPU pool
    allows, instead of one at a time.

    Ray Data 2.49's ``ReservationOpResourceAllocator`` reserves a slice of
    the cluster for every operator of a plan, including operators still
    waiting behind a sort barrier: 1 CPU per map operator and 0.33 per
    sort on a 4-CPU Ray. The flagship plan has enough operators that the
    shared pool left over is 0.33 CPU, so each map operator's budget
    (about 1.06 CPU) admits one task, and Ray's task timeline shows the
    scorer chain's tasks after the dedup sort running back to back on one
    worker while three CPUs sit idle. Without the reservation, Ray Data's
    global CPU and object-store limits and its backpressure still bound
    every operator (the object-store limit becomes 25% of the store, not
    50%).

    Set once, on the process's global ``DataContext``: every Dataset copies
    the global context when it is created, including the ``rd.from_arrow``
    Datasets that operators build, so a per-Dataset setting would miss
    those. A/B with qcperf (``--seconds 16``, 4 logical CPUs): scattered
    ``rows_per_s`` +52–68% over three seeds, ``peak_pss_mb`` at most +3%;
    a warm in-process flagship execution went from 0.95–1.05 s to
    0.63–0.71 s.
    """
    from ray.data import DataContext

    DataContext.get_current().op_resource_reservation_enabled = False


tune_malloc()
tune_ray_data()
