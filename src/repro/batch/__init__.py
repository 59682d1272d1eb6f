"""Lane-batched campaign execution: one leader leg serves a group of legs.

The campaign's one fork path (above block dispatch and warm from-reset
legs): campaign legs that differ only in *when* their fault lands
re-execute nearly identical trajectories, so the lane engine
(:mod:`repro.batch.engine`) drives one shared fault-free *leader*
trajectory on behalf of a whole fork-eligible group, *peels* a lane
into its own replay from the latest leader node before its injection
schedule first fires, and lets every lane whose schedule never fires
*clone* the leader's observation.

The contract is the one every prior tier honoured: campaign reports are
byte-identical with batching on (``run_campaign(batch=True)``, the CLI's
``--batch``, the default) and off (``batch=False``, ``--no-batch``,
where every run executes from reset), pinned by the lane-vs-from-reset
differential suite in ``tests/test_batch.py`` and by the campaign
golden.  Batching is an execution-only switch — it never enters the
config, the journal, or the report.
"""
