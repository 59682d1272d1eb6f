"""Lane-batched campaign execution: one leader leg serves a group of legs.

The campaign's one fork path (above block dispatch and warm from-reset
legs): campaign legs that differ only in *when* their fault lands
re-execute nearly identical trajectories, so the lane engine
(:mod:`repro.batch.engine`) drives one shared fault-free *leader*
trajectory on behalf of a whole fork-eligible group, *peels* a lane
into its own replay from the latest leader node before its injection
schedule first fires, and lets every lane whose schedule never fires
*clone* the leader's observation.

It serves the ``"lanes"`` execution path only (the table in
``docs/PERF.md`` lists the paths).  The contract is the one every prior
tier honoured: campaign reports are byte-identical on every path,
pinned by the lane-vs-from-reset differential suite in
``tests/test_batch.py`` and by the campaign golden.
"""
