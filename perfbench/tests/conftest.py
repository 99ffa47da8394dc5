import sys
from pathlib import Path

# the benchmark's modules are plain top-level modules of perfbench/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
