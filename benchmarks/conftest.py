import sys
from pathlib import Path

# the benchmark measures the library in ./src, as benchmarks/run.py does
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
