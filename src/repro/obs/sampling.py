"""Pass-through span sink, kept importable for gridbench's cost ledger.
Every finished span is stored (DESIGN §16); nothing here decides."""


class SamplingPolicy:
    """No settings: every span is kept."""


class SamplingSpanSink:
    def __init__(self, sink, policy=None) -> None:
        self.sink = sink

    def __call__(self, record: dict) -> None:
        self.sink(record)
