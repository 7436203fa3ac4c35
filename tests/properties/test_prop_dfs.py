"""Property test of DFS file metadata: whatever appends (across block
boundaries), replica failures, pipeline pruning and re-replication a file
goes through, its length is the sum of its blocks' lengths, and the bytes
read back are the bytes appended."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dfs.filesystem import DFS
from repro.sim.machine import Machine

NODES = 5

operations = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(min_value=1, max_value=150)),
        st.tuples(st.just("fail"), st.integers(min_value=1, max_value=NODES - 1)),
        st.tuples(st.just("restart"), st.integers(min_value=1, max_value=NODES - 1)),
        st.tuples(st.just("rereplicate")),
    ),
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(operations)
def test_file_length_is_the_sum_of_its_blocks(ops):
    machines = [Machine(f"node-{i}", rack=f"rack-{i % 2}") for i in range(NODES)]
    dfs = DFS(machines, replication=3, block_size=64, degraded_allocation=True)
    writer = dfs.create("/f", machines[0])
    reader = dfs.open("/f", machines[0])
    written = b""
    for op in ops:
        if op[0] == "append":
            data = bytes((len(written) + i) % 251 for i in range(op[1]))
            assert writer.append(data) == len(written)
            written += data
        elif op[0] == "fail":
            machines[op[1]].fail()
        elif op[0] == "restart":
            machines[op[1]].restart()
        else:
            dfs.rereplicate(strict=False)
        meta = dfs.namenode.get_file("/f")
        assert meta.length == sum(block.length for block in meta.blocks)
        assert meta.length == writer.length == reader.length == len(written)
    assert reader.read_all() == written
