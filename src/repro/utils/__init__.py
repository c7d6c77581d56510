"""Internal utility data structures: the count-min sketch (``sketch``)."""
