"""Package metadata for the FaHaNa reproduction."""

import os
import re

from setuptools import find_packages, setup


def read_version() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "src", "repro", "version.py"), encoding="utf-8") as f:
        match = re.search(r'__version__\s*=\s*"([^"]+)"', f.read())
    if match is None:
        raise RuntimeError("cannot parse __version__ from src/repro/version.py")
    return match.group(1)


setup(
    name="fahana-repro",
    version=read_version(),
    description=(
        "Reproduction of 'The Larger The Fairer? Small Neural Networks Can "
        "Achieve Fairness for Edge Devices' (DAC 2022): fairness- and "
        "hardware-aware NAS with a parallel search engine"
    ),
    long_description=(
        "A from-scratch numpy implementation of the FaHaNa fairness- and "
        "hardware-aware neural architecture search framework, including the "
        "block-based search space, LSTM controller, backbone freezing, edge "
        "latency models, the paper's experiment harnesses and a search engine "
        "with parallel episode execution, content-addressed evaluation "
        "caching and checkpoint/resume, all driven by a declarative, "
        "serializable RunSpec API (repro.run) with a pluggable strategy "
        "registry."
    ),
    long_description_content_type="text/plain",
    author="paper-repo-growth",
    license="MIT",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy>=1.22"],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
    entry_points={
        "console_scripts": [
            "repro-search=repro.api.cli:main",
            "repro-lint=repro.analysis.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering :: Artificial Intelligence",
    ],
)
