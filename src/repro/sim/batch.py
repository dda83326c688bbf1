"""Retired: the columnar batch engine, kept as an empty module.

Open-loop ``fcfs`` and ``split`` were once served here by sequential
Lindley loops over numpy columns (``RunConfig(engine="batch")``).  They
are now served by the native C loop (:func:`repro.perf.native.serve_fifo`)
where it builds and takes the sizes, and by the heap-free loop
(:func:`repro.server.driver.serve_direct`) otherwise, as every other
policy is (:func:`repro.shaping.select_engine`).  The native loop beat
this engine by more than 12x at 10^5 requests, so a third
implementation of one FIFO recurrence no longer earned its parity cost.

The module holds no code.  It stays importable only because the
repository benchmark's layer tracer (``perfbench/layers.py``) imports it
at module level; it goes when that import does.  Nothing under
``src/`` imports it.
"""
