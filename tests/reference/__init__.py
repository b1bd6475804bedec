"""Test oracles: slow or materialising reference implementations.

The package ships one implementation per concept; these are the
originals they replaced, kept only so differential tests can check the
package against them.  Nothing under ``src/`` imports this package.
"""
