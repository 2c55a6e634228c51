"""Zero-shot and generalized zero-shot sign recognition over precomputed features."""
