from setuptools import find_packages, setup

setup(
    name="repro-sequential-patterns",
    version="1.1.0",
    description=(
        "Reproduction of Agrawal & Srikant, 'Mining Sequential Patterns' "
        "(ICDE 1995): AprioriAll/AprioriSome/DynamicSome with two "
        "counting backends, out-of-core and incremental mining"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    # PEP 561: the package ships inline annotations; the py.typed marker
    # tells type checkers in downstream projects to use them.
    package_data={"repro": ["py.typed"]},
    zip_safe=False,
    python_requires=">=3.11",
    install_requires=["numpy"],
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering :: Information Analysis",
        "Typing :: Typed",
    ],
)
